"""Helpers of perfbench/run.py: percentiles, spreads, span self times,
STATS parsing and the comparison of two result files.

Kept free of I/O and of the build so that tests/test_benchlib.py can test
them directly.
"""

import math
import statistics
from collections import defaultdict


def tail_percentile(values, p, min_beyond=10):
    """Nearest-rank p-quantile (0 < p < 1) of `values`.

    Raises ValueError unless at least `min_beyond` samples lie beyond the
    selected one, and never returns a value above the observed maximum.
    """
    s = sorted(values)
    n = len(s)
    rank = max(1, math.ceil(p * n))  # 1-based
    if n - rank < min_beyond:
        raise ValueError('p%g of %d samples has %d beyond it, need %d'
                         % (100 * p, n, n - rank, min_beyond))
    return check_tail(s[rank - 1], s[-1])


def check_tail(value, maximum):
    """Returns `value`; raises ValueError if a tail percentile exceeds the
    maximum it was computed from (an interpolating histogram can report
    that; a percentile of real samples never can)."""
    if value > maximum:
        raise ValueError('percentile %r above observed max %r' % (value, maximum))
    return value


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children. `spans` are [name, parent, query, start, end]
    rows, parents referring to row indices."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[1] >= 0:
            children[sp[1]].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered, cursor = 0, start
        for cs, ce in sorted((spans[c][3], spans[c][4]) for c in children[i]):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append(end - start - covered)
    return out


def coverage(spans):
    """Share of traced query time spent inside layer spans: the self times
    of every span below a query's root span, summed over all queries, over
    the summed root durations. Spans outside queries (query id -1) are
    ignored."""
    selfs = self_times(spans)
    covered = total = 0
    for i, (_, parent, query, start, end) in enumerate(spans):
        if query < 0:
            continue
        if parent < 0:
            total += end - start
        else:
            covered += selfs[i]
    return covered / total if total else 0.0


def parse_exposition(text):
    """Counters, gauges and histogram _sum/_count series of a Prometheus
    text exposition (the QueryServer STATS body), by name.

    Bucket lines and the derived _p50/_p95/_p99/_max gauges are dropped: the
    server interpolates those inside a bucket without clamping to the
    observed maximum, so they can read above the true max.
    """
    out = {}
    for line in text.splitlines():
        if not line or line.startswith('#') or '{' in line:
            continue
        name, _, value = line.partition(' ')
        if name.endswith(('_p50', '_p95', '_p99', '_max')):
            continue
        out[name] = float(value)
    return out


def histogram_mean(stats, family):
    """Mean of a histogram from its _sum and _count series (0 if empty)."""
    count = stats.get(family + '_count', 0.0)
    return stats.get(family + '_sum', 0.0) / count if count else 0.0


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    delta = (new - base) / abs(base)
    return delta if better == 'lower' else -delta


def compare(base_records, new_records, definition):
    """Per workload and metric: medians and quartiles of two sets of runs,
    judged against the bounds of `definition` (BENCHMARK.json).

    Returns a list of row dicts. `verdict` is 'ok', 'REGRESSED' or
    'unresolved' (a spread wider than the bound, unless every new run beats
    every base run) for end-to-end metrics, and '-' for per-layer ones.
    """
    metrics = {m['name']: m for m in definition['end_to_end']}
    metrics.update({m['name']: m for m in definition['per_layer']})

    def collect(records):
        by = defaultdict(lambda: defaultdict(list))
        for r in records:
            for name, m in r['metrics'].items():
                by[r['workload']][name].append(m['value'])
        return by

    base, new = collect(base_records), collect(new_records)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            m = metrics.get(name)
            if m is None:
                continue
            b, n = base[workload][name], new[workload][name]
            bq, nq = quartiles(b), quartiles(n)
            worse = worse_by(bq[1], nq[1], m['better'])
            verdict = '-'
            if 'bound' in m:
                bound = m['bound']
                if worse > bound:
                    verdict = 'REGRESSED'
                elif max(spread(b), spread(n)) > bound and not all(
                        worse_by(x, y, m['better']) < 0 for x in b for y in n):
                    verdict = 'unresolved'
                else:
                    verdict = 'ok'
            rows.append({'workload': workload, 'metric': name,
                         'unit': m['unit'], 'base': bq, 'new': nq,
                         'worse_by': worse, 'bound': m.get('bound'),
                         'verdict': verdict})
    return rows
