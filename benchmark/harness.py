"""Runs a workload's passes, checks every output and reduces the timings.

A pass is what a sequence of CLI runs on one input would do through the
library: for each query (``mine_mii`` with ``ifp`` and ``apriori`` per MII
threshold, ``mine_mlms`` per threshold vector), ``read_fimi`` (the set-up,
timed as a batch of back-to-back reads, the last of which the query uses),
then the query followed by ``.to_text()`` inside its timed span.
Passes run back to back in this one process: a closed loop with one client,
no threads, the interpreter's defaults (GC on, default recursion limit).
Output checks run after the timed spans of a pass.

On a shared 2-core VM the interpreter's speed drifts by 20-40% over
minutes, so raw wall times of two runs of the same code differ by more than
any bound worth gating on. A fixed calibration workload therefore runs
before every query's set-up reads, and each reported time is
its median raw wall time scaled to a reference speed: ``wall * CALIBRATION_REF_S / c``,
where ``c`` is the mean calibration time over the whole run. Scaling by the
run's mean, not by the calibrations next to each step, corrects the drift
from run to run without adding the calibration's own short-term noise to
every sample. The raw wall-time medians are printed beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import ifpmine.data as data
import ifpmine.miners as miners
import ifpmine.mlms as mlms
from ifpmine.oracle import mlms_oracle

from tracing import PER_LAYER, Tracer, per_layer_metrics
from workloads import Input, Workload, uniform_rows

# A set-up sample is the mean time of a batch of back-to-back reads: one read
# of these files takes about a millisecond, too short to time steadily. The
# machine's speed changes within a second, so a batch is timed before every
# query, which spreads the samples over the whole run.
SETUP_READS = 20
# A query still running after this many seconds is stopped and counted as
# failed. It keeps a run inside its time limit when the program gets slow.
QUERY_BUDGET_S = 12.0
# An untraced query shorter than this is repeated back to back until its
# repetitions have taken this long, and its time sample is their mean: times
# of a few tens of milliseconds spread too widely from run to run.
MIN_QUERY_S = 0.25
MIN_PASSES = 2

E2E_UNITS = {
    "setup_s": "s",
    "mii_ifp_s": "s",
    "mii_apriori_s": "s",
    "mlms_s": "s",
    "peak_rss_mb": "MB",
}
KIND_METRIC = {"ifp": "mii_ifp_s", "apriori": "mii_apriori_s", "mlms": "mlms_s"}


# About the median of ``calibration_seconds()`` on a shared 2-core x86-64 VM
# with CPython 3.11.7. It only sets the scale of the adjusted times.
CALIBRATION_REF_S = 0.007
CALIBRATION_ROWS = tuple(map(tuple, uniform_rows(40, 150, 0.3, random.Random("calibration"))))


class _Node:
    __slots__ = ("count", "children")

    def __init__(self) -> None:
        self.count = 0
        self.children: dict[int, _Node] = {}


def _copy(node: _Node) -> _Node:
    fresh = _Node()
    fresh.count = node.count
    fresh.children = {item: _copy(child) for item, child in node.children.items()}
    return fresh


def _size(node: _Node) -> int:
    return 1 + sum(_size(child) for child in node.children.values())


def calibrate() -> int:
    """Work shaped like the miners' that does not use ``ifpmine``: build a
    prefix tree of slot objects, copy it twice, walk the copies, and test
    frozenset inclusion."""
    root = _Node()
    for row in CALIBRATION_ROWS:
        node = root
        for item in row:
            node = node.children.setdefault(item, _Node())
            node.count += 1
    nodes = _size(_copy(root)) + _size(_copy(root))
    sets = [frozenset(r) for r in CALIBRATION_ROWS]
    return nodes + sum(1 for a in sets[:20] for b in sets if a <= b)


def calibration_seconds() -> float:
    """Shortest wall time of three calibration runs after an untimed one. The
    first run after a query reads slow (its data is no longer in the caches)
    and single runs are sometimes interrupted; both tracked the machine's
    speed worse than this."""
    calibrate()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - t0)
    return min(times)


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query ran past its {QUERY_BUDGET_S:.0f} s budget")


@dataclass(frozen=True)
class Query:
    kind: str  # "ifp" | "apriori" | "mlms"
    threshold: str

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.threshold}"

    @property
    def check_key(self) -> str:
        """Key of the recorded output hash; ifp and apriori share one."""
        return f"{'mii' if self.kind != 'mlms' else 'mlms'}@{self.threshold}"


def queries(w: Workload) -> list[Query]:
    return (
        [Query("ifp", t) for t in w.mii]
        + [Query("apriori", t) for t in w.mii]
        + [Query("mlms", t) for t in w.mlms]
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass
class Outcome:
    """One query's result within a pass. ``seconds`` is measured up to the
    failure for a failed query, so a query stopped at its budget never reads
    as fast."""

    seconds: float = 0.0
    text: str | None = None
    itemsets: frozenset | None = None
    error: str | None = None


@dataclass
class Run:
    """Everything one benchmark run measures, across its passes."""

    workload: Workload
    inp: Input
    path: str
    expected: dict[str, str] | None  # check_key -> sha256, for recorded seeds
    mlms_reference: dict[str, set] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    # Time samples of passes in which a query of the metric failed; used only
    # when no pass of the run measured the metric cleanly.
    failed_samples: dict[str, list[float]] = field(default_factory=dict)
    layer_samples: dict[str, list[float]] = field(default_factory=dict)
    calibration: list[float] = field(default_factory=list)
    pass_seconds: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    spans: list[tuple] = field(default_factory=list)

    def prepare(self) -> None:
        """Reference MLMS results from the brute-force oracle, computed once.
        The oracle's 25-item transaction guard holds for every workload; a
        refusal raises here and ends the run without a result."""
        db = data.parse_fimi(self.inp.text)
        for t in self.workload.mlms:
            tv = mlms.ThresholdVector.from_text(t, len(db))
            self.mlms_reference[t] = mlms_oracle(db, tv)

    def one_pass(self, traced: bool) -> None:
        tracer = Tracer()
        peak_nodes = 0
        outcomes: dict[Query, Outcome] = {}
        setups = []
        with tracer.installed() if traced else nullcontext():
            for q in queries(self.workload):
                self.calibration.append(calibration_seconds())
                t0 = time.perf_counter()
                for _ in range(SETUP_READS):
                    db = data.read_fimi(self.path)
                setups.append((time.perf_counter() - t0) / SETUP_READS)
                stats = miners.MiningStats() if traced and q.kind == "ifp" else None
                with tracer.span(q.label) if traced else nullcontext():
                    outcomes[q] = execute(q, db, stats, 0.0 if traced else MIN_QUERY_S)
                if stats is not None:
                    peak_nodes = max(peak_nodes, stats.peak_nodes)
        self.pass_seconds[traced].append(SETUP_READS * sum(setups) + sum(o.seconds for o in outcomes.values()))

        bad = self.check(outcomes)
        if traced:
            support_itemsets = sum(
                len(o.itemsets) for q, o in outcomes.items() if q.kind != "ifp" and o.itemsets is not None
            )
            for name, value in per_layer_metrics(tracer.spans, peak_nodes, support_itemsets).items():
                self.layer_samples.setdefault(name, []).append(value)
            self.spans = tracer.spans
        else:
            self.samples.setdefault("setup_s", []).extend(setups)
            sums = dict.fromkeys(KIND_METRIC.values(), 0.0)
            tainted = set()
            for q, o in outcomes.items():
                sums[KIND_METRIC[q.kind]] += o.seconds
                if q in bad:
                    tainted.add(KIND_METRIC[q.kind])
            for name, value in sums.items():
                (self.failed_samples if name in tainted else self.samples).setdefault(name, []).append(value)

    def check(self, outcomes: dict[Query, Outcome]) -> set[Query]:
        """Count every query of the pass as attempted, and as failed when it
        raised, overran its budget or fails its check. ifp and apriori must
        render byte-identical text; MLMS must equal the oracle; on a recorded
        seed every rendered result must also match its recorded sha256. The
        two MII queries of one threshold pass or fail together, since a
        disagreement cannot say which of them is wrong."""
        bad: dict[Query, str] = {q: o.error for q, o in outcomes.items() if o.error}
        for q, o in outcomes.items():
            if q in bad:
                continue
            if self.expected is not None and self.expected.get(q.check_key) != sha256(o.text):
                bad[q] = "rendered text differs from the recorded sha256"
            elif q.kind == "mlms" and o.itemsets != self.mlms_reference[q.threshold]:
                bad[q] = "itemsets differ from mlms_oracle"
        for t in self.workload.mii:
            ifp, apr = outcomes[Query("ifp", t)], outcomes[Query("apriori", t)]
            pair = (Query("ifp", t), Query("apriori", t))
            if any(q in bad for q in pair) or ifp.text != apr.text:
                for q in pair:
                    bad.setdefault(q, "ifp and apriori disagree")
        self.attempted += len(outcomes)
        self.failed += len(bad)
        for q, why in bad.items():
            if len(self.failures) < 20:
                self.failures.append(f"{q.label}: {why}")
        return set(bad)

    def speed_factor(self) -> float:
        """Scales this run's wall times to the reference speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.calibration)

    def time_samples(self, name: str) -> list[float]:
        """The metric's samples from clean passes, or, when a query of the
        metric failed in every pass, from the failed ones (the run is then
        not correct anyway)."""
        return self.samples.get(name) or self.failed_samples[name]

    def metrics(self) -> dict[str, float]:
        out = {name: statistics.median(self.time_samples(name)) * self.speed_factor() for name in KIND_METRIC.values()}
        out["setup_s"] = statistics.median(self.samples["setup_s"]) * self.speed_factor()
        out["peak_rss_mb"] = peak_rss_mb()
        return {name: out[name] for name in E2E_UNITS}

    def layer_metrics(self) -> dict[str, float]:
        out = {
            name: statistics.median(v) * (self.speed_factor() if PER_LAYER[name][0] == "s" else 1)
            for name, v in self.layer_samples.items()
        }
        overhead = statistics.median(self.pass_seconds[True]) - statistics.median(self.pass_seconds[False])
        out["trace.overhead_s"] = overhead * self.speed_factor()
        return out


def execute(
    q: Query, db: data.TransactionDatabase, stats: miners.MiningStats | None, min_seconds: float = 0.0
) -> Outcome:
    """Run one query and render it, the way ``mine-mii`` / ``mine-mlms`` do,
    back to back until the repetitions have taken ``min_seconds`` (at least
    once). Only the calls and ``.to_text()`` are timed; the time is their
    mean, and every repetition must render the same text."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, QUERY_BUDGET_S)
    texts = []
    t0 = time.perf_counter()
    try:
        while True:
            if q.kind == "mlms":
                result = mlms.mine_mlms(db, mlms.ThresholdVector.from_text(q.threshold, len(db)))
            else:
                sigma = data.SupportThreshold.parse(q.threshold).resolve(len(db))
                result = miners.mine_mii(db, sigma, algorithm=q.kind, stats=stats)
            texts.append(result.to_text())
            seconds = time.perf_counter() - t0
            if seconds >= min_seconds:
                break
    except Exception as exc:  # a failed query is counted, the run goes on
        return Outcome(seconds=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if any(text != texts[0] for text in texts):
        return Outcome(seconds=seconds / len(texts), error="repetitions rendered different text")
    found = result.frequent if q.kind == "mlms" else result.miis
    return Outcome(seconds=seconds / len(texts), text=texts[0], itemsets=frozenset(found))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    workload: Workload,
    inp: Input,
    path: str,
    seconds: float,
    trace: bool,
    expected: dict[str, str] | None,
) -> Run:
    """Run passes until the next one would end past ``seconds`` (at least
    ``MIN_PASSES``). With ``trace``, untraced and traced passes alternate, so
    the tracing overhead is measured against untraced passes of the same run."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(inp.text)
    try:
        run = Run(workload, inp, path, expected)
        run.prepare()
        begin = time.perf_counter()
        n = 0
        while True:
            t0 = time.perf_counter()
            run.one_pass(traced=trace and n % 2 == 1)
            n += 1
            last = time.perf_counter() - t0
            if n >= MIN_PASSES and time.perf_counter() - begin + last > seconds:
                return run
    finally:
        os.remove(path)
