#!/usr/bin/env python3
"""The FDB benchmark: builds perfbench/ (and with it libfdb) from source,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload star-materialize --seed 1 \\
        --seconds 10 --trace 0 [--out results.jsonl]
    python3 perfbench/run.py --compare base.jsonl new.jsonl

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. --out appends the run, with its
provenance and sample counts, to a JSON-lines file; --compare reads two such
files and judges every metric against the bounds of BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, '.bench_build')
BINARY = os.path.join(BUILD, 'fdb_perfbench')
DEADLINE_S = 170  # the whole command must end within 180 s
# An untraced run is a series of fresh processes this long. On the 4-vCPU
# guest the benchmark was written on, the same work ran up to 1.8x slower in
# one two-second process than in the next, so a run's figures are medians
# over as many processes as the per-process cost of ~0.3 s allows.
EPOCH_S = 1.5
# Every untraced run measures at least this many queries, so a p95 has >= 10
# samples beyond it.
MIN_QUERIES = 200

# Per-layer metrics read from spans: metric -> (span name, ns per unit).
SPAN_METRICS = {
    'sql.parse_us': ('sql.parse', 1e3),
    'opt.ftree_search_us': ('opt.ftree_search', 1e3),
    'opt.fplan_search_ms': ('opt.fplan_search', 1e6),
    'core.ground_ms': ('core.ground', 1e6),
    'core.project_ms': ('core.project', 1e6),
    'core.fplan_exec_ms': ('core.fplan_exec', 1e6),
    'core.op_swap_ms': ('core.op_swap', 1e6),
    'core.op_merge_ms': ('core.op_merge', 1e6),
    'core.op_absorb_ms': ('core.op_absorb', 1e6),
    'core.op_select_ms': ('core.op_select', 1e6),
    'core.op_project_ms': ('core.op_project', 1e6),
    'core.aggregate_ms': ('core.aggregate', 1e6),
    'core.materialize_groups_ms': ('core.materialize_groups', 1e6),
    'core.kernel_compile_us': ('core.kernel_compile', 1e3),
    'core.morsel_plan_us': ('core.morsel_plan', 1e3),
    'core.enumerate_ms': ('core.enumerate', 1e6),
    'core.materialize_ms': ('core.materialize', 1e6),
    'storage.sort_lex_ms': ('storage.sort_lex', 1e6),
    'serve.normalize_us': ('serve.normalize', 1e3),
    'serve.plan_cache_lookup_us': ('serve.plan_cache_lookup', 1e3),
    'serve.render_us': ('serve.render', 1e3),
}

# Per-layer metrics that are the median of fdb_perfbench's sample list of
# the same name.
SAMPLE_METRICS = (
    'opt.fplan_states',
    'core.ground_singletons',
    'core.frep_bytes_per_singleton',
    'core.op_steps',
    'core.agg_swaps',
    'core.enumerate_speedup',
    'storage.result_rows',
)


def fail(msg, code=2):
    print('perfbench: ' + msg, file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build

def instrumented_flags(cache_path):
    """FDB_* instrumentation options switched on in a CMake cache (the
    check bench/run_all.sh makes)."""
    if not os.path.exists(cache_path):
        return []
    pat = re.compile(r'^(FDB_(SANITIZE|TSAN|UBSAN|VALIDATE|FAULTS)):[^=]*=(ON|TRUE|1)$')
    with open(cache_path) as f:
        return [m.group(1) for m in map(pat.match, f.read().splitlines()) if m]


def build():
    if not os.path.isfile(os.path.join(ROOT, 'CMakeLists.txt')) or \
            not os.path.isdir(os.path.join(ROOT, 'src')):
        fail('no fdb source tree around %s' % HERE)
    cache = os.path.join(BUILD, 'CMakeCache.txt')
    steps = []
    if not os.path.exists(cache):
        steps.append(['cmake', '-S', HERE, '-B', BUILD,
                      '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD, '--target', 'fdb_perfbench',
                  '-j', str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail('build failed: ' + ' '.join(cmd))
    bad = instrumented_flags(cache)
    if bad:
        fail('%s is an instrumented build (%s); benchmark an uninstrumented '
             'Release build' % (BUILD, ', '.join(bad)))


# ------------------------------------------------------------- provenance

def provenance(raw, seed):
    prov = {'git_sha': 'unknown', 'source_digest': source_digest(),
            'compiler': raw['compiler'], 'build_type': raw['build_type'],
            'nproc': os.cpu_count(), 'pool_threads': raw['pool_threads'],
            'seed': seed}
    try:
        sha = subprocess.run(['git', '-C', ROOT, 'rev-parse', 'HEAD'],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(['git', '-C', ROOT, 'status', '--porcelain',
                                '--untracked-files=no'],
                               capture_output=True, text=True, check=True)
        prov['git_sha'] = sha.stdout.strip() + ('-dirty' if dirty.stdout.strip() else '')
    except (OSError, subprocess.CalledProcessError):
        pass  # not a git checkout: the source digest identifies the code
    return prov


def source_digest():
    """sha256 over the engine and benchmark sources (paths and bytes)."""
    h = hashlib.sha256()
    for top in ('src', 'perfbench', 'CMakeLists.txt', 'cmake'):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if '__pycache__' in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode() + b'\0')
            with open(p, 'rb') as f:
                h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- metrics

def merge_epochs(records):
    """One run's record from the records of its epoch processes: samples
    concatenated, counts summed, and set-up time, measured time and peak RSS
    as one list entry per process."""
    raw = dict(records[0])
    for key in ('setup_s', 'epoch_s', 'peak_rss_kb'):
        raw[key] = [r[key] for r in records]
    for key in ('latency_s', 'result_bytes', 'notes'):
        raw[key] = [v for r in records for v in r[key]]
    for key in ('attempted', 'wrong', 'errors'):
        raw[key] = sum(r[key] for r in records)
    return raw


def end_to_end(raw):
    """Every end-to-end metric of the untraced run: (value, sample count)."""
    lat = raw['latency_s']
    completed = raw['attempted'] - raw['errors']
    return {
        'setup_s': (statistics.median(raw['setup_s']), len(raw['setup_s'])),
        'latency_p50_ms': (statistics.median(lat) * 1e3, len(lat)),
        'latency_p95_ms': (benchlib.tail_percentile(lat, 0.95) * 1e3, len(lat)),
        'throughput_qps': (completed / sum(raw['epoch_s']), completed),
        'peak_rss_mb': (statistics.median(raw['peak_rss_kb']) / 1024.0,
                        len(raw['peak_rss_kb'])),
        'result_bytes': (statistics.median(raw['result_bytes']),
                         len(raw['result_bytes'])),
    }


def per_layer(raw, spans):
    """Every per-layer metric of a traced run: (value, sample count)."""
    durations = {}
    for name, _, _, start, end in spans:
        durations.setdefault(name, []).append(end - start)
    out = {}
    for metric, (span, ns_per_unit) in SPAN_METRICS.items():
        d = durations.get(span, [])
        out[metric] = (statistics.median(d) / ns_per_unit if d else 0.0, len(d))
    samples = raw['samples']
    for metric in SAMPLE_METRICS:
        v = samples.get(metric, [])
        out[metric] = (statistics.median(v) if v else 0.0, len(v))
    qerr = samples.get('opt.size_qerror', [])
    out['opt.size_qerror_median'] = (statistics.median(qerr) if qerr else 0.0, len(qerr))
    out['opt.size_qerror_max'] = (max(qerr) if qerr else 0.0, len(qerr))
    hits = sum(samples.get('lp.edge_cover_hits', []))
    solves = sum(samples.get('lp.edge_cover_solves', []))
    out['lp.edge_cover_hit_ratio'] = (hits / (hits + solves) if hits + solves else 0.0,
                                      int(hits + solves))

    stats = benchlib.parse_exposition(raw['stats_exposition'])
    received = stats.get('fdb_serve_requests_total', 0.0)
    hits = stats.get('fdb_plan_cache_hits_total', 0.0)
    lookups = hits + stats.get('fdb_plan_cache_misses_total', 0.0)
    out['serve.plan_cache_hit_ratio'] = (hits / lookups if lookups else 0.0, int(lookups))
    out['serve.coalesced_ratio'] = (
        stats.get('fdb_serve_coalesced_total', 0.0) / received if received else 0.0,
        int(received))
    for metric, family in (('serve.queue_wait_ms', 'fdb_serve_queue_wait_seconds'),
                           ('serve.execute_ms', 'fdb_serve_execute_seconds')):
        out[metric] = (benchlib.histogram_mean(stats, family) * 1e3,
                       int(stats.get(family + '_count', 0)))
    out['serve.failed'] = (sum(stats.get(c, 0.0) for c in (
        'fdb_serve_errors_total', 'fdb_serve_timeouts_total',
        'fdb_serve_rejected_total', 'fdb_server_resource_rejected_total')),
        int(received))

    out['trace.coverage_pct'] = (100.0 * benchlib.coverage(spans),
                                 len(raw['traced_latency_s']))
    untraced = statistics.median(raw['latency_s'])
    traced = statistics.median(raw['traced_latency_s'])
    out['trace.overhead_pct'] = (100.0 * (traced / untraced - 1.0),
                                 len(raw['traced_latency_s']))
    return out


# -------------------------------------------------------------------- run

def run(args, definition):
    started = time.monotonic()
    names = [w['name'] for w in definition['workloads']]
    if args.workload not in names:
        fail('unknown workload %r (have %s)' % (args.workload, ', '.join(names)))
    build()
    tag = '%s-%d-%d' % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(BUILD, 'spans-%s.json' % tag)

    def process(epoch, seconds):
        raw_path = os.path.join(BUILD, 'raw-%s-%d.json' % (tag, epoch))
        cmd = [BINARY, '--workload', args.workload, '--seed', str(args.seed),
               '--seconds', str(seconds), '--trace', str(args.trace),
               '--out', raw_path, '--epoch', str(epoch), '--spans', spans_path]
        left = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(10, left))
        except subprocess.TimeoutExpired:
            fail('%s timed out' % ' '.join(cmd))
        if proc.returncode:
            fail('%s exited with %d' % (' '.join(cmd), proc.returncode))
        with open(raw_path) as f:
            return json.load(f)

    if args.trace:
        # One process: half the time untraced (the baseline of
        # trace.overhead_pct), then half re-enacted under spans.
        raw = merge_epochs([process(0, args.seconds / 2)])
    else:
        # Fresh processes of EPOCH_S each: every epoch times its own set-up
        # and has its own peak RSS, so both are sampled across the run.
        epochs = max(1, round(args.seconds / EPOCH_S))
        records = []
        while len(records) < epochs or \
                sum(r['attempted'] for r in records) < MIN_QUERIES:
            records.append(process(len(records), args.seconds / epochs))
        raw = merge_epochs(records)

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)['spans']
        values, wanted = per_layer(raw, spans), definition['per_layer']
    else:
        values, wanted = end_to_end(raw), definition['end_to_end']
    missing = [m['name'] for m in wanted if m['name'] not in values]
    if missing:
        fail('no measurement for ' + ', '.join(missing))

    prov = provenance(raw, args.seed)
    failed = raw['wrong'] + raw['errors']
    print('perfbench %s seed=%d seconds=%g trace=%d' % (
        args.workload, args.seed, args.seconds, args.trace))
    print('provenance ' + ' '.join('%s=%s' % kv for kv in prov.items()))
    for m in wanted:
        value, n = values[m['name']]
        print('  %-32s %14.6g %-9s n=%d' % (m['name'], value, m['unit'], n))
    print('  %-32s %14.6g %-9s n=%d (wrong=%d errors=%d)' % (
        'error_rate', failed / max(1, raw['attempted']), 'ratio',
        raw['attempted'], raw['wrong'], raw['errors']))
    for note in raw['notes']:
        print('  note: ' + note)
    metrics = {m['name']: {'value': values[m['name']][0], 'unit': m['unit']}
               for m in wanted}
    result = {'correct': raw['wrong'] == 0, 'attempted': raw['attempted'],
              'failed': failed, 'metrics': metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, seconds=args.seconds, provenance=prov,
                      samples={m['name']: values[m['name']][1] for m in wanted})
        with open(args.out, 'a') as f:
            f.write(json.dumps(record) + '\n')
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def compare_files(base_path, new_path, definition):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    rows = benchlib.compare(load(base_path), load(new_path), definition)
    print('%-18s %-30s %-33s %-33s %8s %6s  %s' % (
        'workload', 'metric', 'base q1/median/q3', 'new q1/median/q3',
        'worse', 'bound', 'verdict'))
    for r in rows:
        print('%-18s %-30s %-33s %-33s %+7.1f%% %6s  %s' % (
            r['workload'], r['metric'],
            '/'.join('%.4g' % v for v in r['base']),
            '/'.join('%.4g' % v for v in r['new']),
            100 * r['worse_by'], '-' if r['bound'] is None else '%g' % r['bound'],
            r['verdict']))
    return 1 if any(r['verdict'] == 'REGRESSED' for r in rows) else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload')
    p.add_argument('--seed', type=int, default=1)
    p.add_argument('--seconds', type=float, default=10)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--out', help='append the run to this JSON-lines file')
    p.add_argument('--compare', nargs=2, metavar=('BASE', 'NEW'))
    args = p.parse_args()
    definition_path = os.path.join(ROOT, 'BENCHMARK.json')
    if not os.path.exists(definition_path):
        fail('no BENCHMARK.json at ' + ROOT)
    with open(definition_path) as f:
        definition = json.load(f)
    if args.compare:
        return compare_files(args.compare[0], args.compare[1], definition)
    if not args.workload:
        fail('--workload is required')
    return run(args, definition)


if __name__ == '__main__':
    sys.exit(main())
