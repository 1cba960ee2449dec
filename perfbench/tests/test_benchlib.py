"""Tests of the benchmark's own helpers (perfbench/benchlib.py) and of the
metric definition in BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_selects_nearest_rank(self):
        values = list(range(1, 201))  # 200 samples
        self.assertEqual(benchlib.tail_percentile(values, 0.95), 190)
        self.assertEqual(benchlib.tail_percentile(values, 0.5), 100)

    def test_order_does_not_matter(self):
        values = list(range(1, 201))
        self.assertEqual(benchlib.tail_percentile(values[::-1], 0.95), 190)

    def test_needs_ten_samples_beyond_the_tail(self):
        benchlib.tail_percentile(range(200), 0.95)  # exactly 10 beyond
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(range(199), 0.95)  # 9 beyond
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(range(1000), 0.995)

    def test_rejects_a_tail_above_the_max(self):
        self.assertEqual(benchlib.check_tail(3.0, 3.0), 3.0)
        with self.assertRaises(ValueError):
            benchlib.check_tail(35.5, 11.6)


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(benchlib.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(benchlib.spread([2.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    # [name, parent, query, start, end]
    SPANS = [
        ['query', -1, 0, 0, 100],
        ['a', 0, 0, 10, 40],
        ['a.child', 1, 0, 15, 25],
        ['b', 0, 0, 50, 90],
        ['probe', -1, -1, 100, 200],
        ['p', 4, -1, 110, 190],
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(benchlib.self_times(self.SPANS),
                         [30, 20, 10, 40, 20, 80])

    def test_overlapping_children_count_once(self):
        spans = [['root', -1, 0, 0, 100], ['x', 0, 0, 10, 60],
                 ['y', 0, 0, 40, 80], ['z', 0, 0, 90, 120]]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 70 - 10)

    def test_coverage_ignores_spans_outside_queries(self):
        # Layer self times inside query 0: 20 + 10 + 40 of 100.
        self.assertAlmostEqual(benchlib.coverage(self.SPANS), 0.7)


class ExpositionTest(unittest.TestCase):
    TEXT = '\n'.join([
        '# TYPE fdb_serve_requests_total counter',
        'fdb_serve_requests_total 10',
        'fdb_serve_execute_seconds_bucket{le="0.001"} 4',
        'fdb_serve_execute_seconds_sum 0.02',
        'fdb_serve_execute_seconds_count 8',
        'fdb_serve_execute_seconds_p95 0.0355',
        'fdb_serve_execute_seconds_p99 0.0355',
        'fdb_serve_execute_seconds_max 0.0116',
    ])

    def test_reads_counters_and_means_only(self):
        stats = benchlib.parse_exposition(self.TEXT)
        self.assertEqual(stats['fdb_serve_requests_total'], 10)
        self.assertAlmostEqual(
            benchlib.histogram_mean(stats, 'fdb_serve_execute_seconds'), 0.0025)
        for derived in ('_p95', '_p99', '_max'):
            self.assertNotIn('fdb_serve_execute_seconds' + derived, stats)
        self.assertEqual(benchlib.histogram_mean(stats, 'absent'), 0.0)


def record(workload, **values):
    return {'workload': workload,
            'metrics': {k: {'value': v, 'unit': 'ms'} for k, v in values.items()}}


class CompareTest(unittest.TestCase):
    DEFINITION = {
        'end_to_end': [
            {'name': 'latency_p50_ms', 'unit': 'ms', 'better': 'lower', 'bound': 0.1},
            {'name': 'throughput_qps', 'unit': 'queries/s', 'better': 'higher',
             'bound': 0.1},
        ],
        'per_layer': [{'name': 'core.ground_ms', 'unit': 'ms', 'better': 'lower'}],
    }

    def verdicts(self, base, new):
        rows = benchlib.compare(base, new, self.DEFINITION)
        return {(r['workload'], r['metric']): r['verdict'] for r in rows}

    def test_within_bound_is_ok_and_beyond_is_a_regression(self):
        base = [record('w', latency_p50_ms=v, throughput_qps=100.0)
                for v in (10.0, 10.1, 9.9, 10.0)]
        new = [record('w', latency_p50_ms=v, throughput_qps=q)
               for v, q in ((10.5, 80.0), (10.4, 81.0), (10.6, 79.0), (10.5, 80.0))]
        v = self.verdicts(base, new)
        self.assertEqual(v[('w', 'latency_p50_ms')], 'ok')
        self.assertEqual(v[('w', 'throughput_qps')], 'REGRESSED')

    def test_wide_spread_is_unresolved(self):
        base = [record('w', latency_p50_ms=v) for v in (5.0, 10.0, 15.0, 10.0)]
        new = [record('w', latency_p50_ms=v) for v in (6.0, 10.5, 14.0, 10.5)]
        self.assertEqual(self.verdicts(base, new)[('w', 'latency_p50_ms')],
                         'unresolved')

    def test_per_layer_metrics_have_no_verdict(self):
        rows = benchlib.compare([record('w', **{'core.ground_ms': 1.0})],
                                [record('w', **{'core.ground_ms': 2.0})],
                                self.DEFINITION)
        self.assertEqual(rows[0]['verdict'], '-')
        self.assertAlmostEqual(rows[0]['worse_by'], 1.0)


class EpochMergeTest(unittest.TestCase):
    @staticmethod
    def epoch(setup, rss_kb, latencies, wrong=0):
        return {'setup_s': setup, 'epoch_s': 1.0, 'peak_rss_kb': rss_kb,
                'latency_s': latencies, 'result_bytes': [8.0] * len(latencies),
                'notes': [], 'attempted': len(latencies), 'wrong': wrong,
                'errors': 0}

    def test_samples_concatenate_and_counts_add(self):
        raw = run.merge_epochs([self.epoch(0.1, 1024, [0.001] * 100),
                                self.epoch(0.3, 4096, [0.002] * 100, wrong=1),
                                self.epoch(0.2, 2048, [0.003] * 100)])
        self.assertEqual(raw['attempted'], 300)
        self.assertEqual(raw['wrong'], 1)
        self.assertEqual(len(raw['latency_s']), 300)
        self.assertEqual(raw['setup_s'], [0.1, 0.3, 0.2])

    def test_per_process_values_take_the_median(self):
        raw = run.merge_epochs([self.epoch(0.1, 1024, [0.001] * 100),
                                self.epoch(0.3, 4096, [0.002] * 100),
                                self.epoch(0.2, 2048, [0.003] * 100)])
        m = run.end_to_end(raw)
        self.assertEqual(m['setup_s'], (0.2, 3))
        self.assertEqual(m['peak_rss_mb'], (2.0, 3))
        self.assertEqual(m['throughput_qps'], (100.0, 300))
        self.assertAlmostEqual(m['latency_p50_ms'][0], 2.0)


class DefinitionTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                               'BENCHMARK.json')) as f:
            self.definition = json.load(f)

    def test_every_metric_has_a_computation(self):
        per_layer = {m['name'] for m in self.definition['per_layer']}
        computed = set(run.SPAN_METRICS) | set(run.SAMPLE_METRICS) | {
            'opt.size_qerror_median', 'opt.size_qerror_max',
            'lp.edge_cover_hit_ratio', 'serve.plan_cache_hit_ratio',
            'serve.coalesced_ratio', 'serve.queue_wait_ms', 'serve.execute_ms',
            'serve.failed', 'trace.coverage_pct', 'trace.overhead_pct'}
        self.assertEqual(per_layer, computed)

    def test_span_metric_units_match_their_scale(self):
        units = {m['name']: m['unit'] for m in self.definition['per_layer']}
        for metric, (_, ns_per_unit) in run.SPAN_METRICS.items():
            self.assertEqual({'us': 1e3, 'ms': 1e6}[units[metric]], ns_per_unit,
                             metric)


if __name__ == '__main__':
    unittest.main()
