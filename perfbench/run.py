#!/usr/bin/env python3
"""Benchmark of ``atc-icl run``: end-to-end throughput and a traced per-layer breakdown.

Each timed invocation is the real command (``cli.run``) in a fresh child
process over a corpus generated at ``synth.PE_SHAPE`` from the workload seed,
with a fresh ``out_dir``. Invocations repeat until ``--seconds`` have passed;
every one is checked against a reference and counts its essays as failed if a
check does not hold. The end-to-end times are scaled to a reference machine
speed that speed probes measure inside the child (see ``calibrate.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (essays) and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, both modes;
                                                              # rewrites BENCHMARK.json
    python3 perfbench/run.py --record-expected   # store seed-0 digests in expected.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "atc_icl" / "__init__.py").is_file():
    print(f"error: no atc_icl package under {SRC}; run from a repository checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from calibrate import window  # noqa: E402
from stub import text_set_digest  # noqa: E402
from workloads import COMMON_CROSSINGS, STUB_KEY_ENV, WORKLOADS, RunSetup  # noqa: E402

RUN_SECONDS = 30
DEFAULT_SEED = 0
EXPECTED_FILE = HERE / "expected.json"
WORK_ROOT = HERE / "_work"
CHILD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 120.0  # no invocation starts past this, so a run ends within 180 s

END_TO_END = (
    # name, unit, better, bound
    ("essays_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics. Essay-loop totals are per full 80-essay test pass (the
# median invocation scaled by test essays / essays per invocation); per-run
# layers (corpus load, info block, aggregation, cli) are per invocation.
PER_LAYER = (
    ("corpus.load_corpus.s", "s", "lower"),
    ("selection.rank_neighbors.calls", "count", "lower"),
    ("selection.rank_neighbors.self_s", "s", "lower"),
    ("gateway.embed.calls", "count", "lower"),
    ("gateway.embed.self_s", "s", "lower"),
    ("gateway.embed.distinct_ratio", "ratio", "higher"),
    ("gateway.cosine_similarity.calls", "count", "lower"),
    ("gateway.cosine_similarity.s", "s", "lower"),
    ("gateway.chat.calls", "count", "lower"),
    ("gateway.chat.self_s", "s", "lower"),
    ("gateway.chat.ms_p50", "ms", "lower"),
    ("gateway.chat.ms_p95", "ms", "lower"),
    ("gateway.chat.wait_s", "s", "lower"),
    ("gateway.chat.inflight_max", "count", "higher"),
    ("gateway.store.reads", "count", "lower"),
    ("gateway.store.read_s", "s", "lower"),
    ("gateway.store.embed_read_s", "s", "lower"),
    ("gateway.store.chat_read_s", "s", "lower"),
    ("gateway.store.read_mb", "MB", "lower"),
    ("gateway.store.hit_ratio", "ratio", "higher"),
    ("gateway.store.writes", "count", "lower"),
    ("gateway.store.write_s", "s", "lower"),
    ("prompting.build_info_block.s", "s", "lower"),
    ("prompting.build_prompt.calls", "count", "lower"),
    ("prompting.build_prompt.self_s", "s", "lower"),
    ("prompting.prompt_kb", "KB", "lower"),
    ("prompting.parse_response.s", "s", "lower"),
    ("prompting.parse_retries", "count", "lower"),
    ("features.extract_structural.calls", "count", "lower"),
    ("features.extract_structural.s", "s", "lower"),
    ("ensemble.run_ensemble.s", "s", "lower"),
    ("ensemble.run_ensemble.ms_p50", "ms", "lower"),
    ("ensemble.run_ensemble.ms_p90", "ms", "lower"),
    ("ensemble.majority_vote.s", "s", "lower"),
    ("metrics.aggregate_runs.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("upstream_requests_per_essay", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def spec() -> dict:
    """BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class Stub:
    """The chat stub process for the live workload."""

    def __init__(self, setup: RunSetup) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(setup.corpus_dir), str(setup.split_file),
             "--seed", str(setup.seed)],
            stdout=subprocess.PIPE, env=child_env(),
        )
        line = self.proc.stdout.readline().decode("ascii").split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("chat stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        """What the stub served since the previous call."""
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as r:
            return json.load(r)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), STUB_KEY_ENV: "perfbench-stub"}


@dataclass
class Invocation:
    index: int
    traced: bool
    essays: int
    started: float
    ended: float = 0.0
    first_ensemble: float | None = None
    returned: float | None = None
    setup_cpu: float | None = None
    loop_cpu: float | None = None
    probes: list = field(default_factory=list)
    rss_mb: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)
    child: dict = field(default_factory=dict)
    stub: dict = field(default_factory=dict)

    @property
    def setup_wall_s(self) -> float | None:
        return None if self.first_ensemble is None else self.first_ensemble - self.started

    @property
    def loop_wall_s(self) -> float | None:
        if self.first_ensemble is None or self.returned is None:
            return None
        return self.returned - self.first_ensemble

    def at_reference_speed(self, start: float, wall: float | None, cpu: float | None) -> float | None:
        """The stretch ``[start, start + wall]`` without its probes, its CPU part scaled to speed 1.0.

        Waiting is not scaled: on the live workload most of the time is the
        stub's latency, which the machine's speed does not change.
        """
        if wall is None or cpu is None:
            return None
        measured = window(self.probes, start, start + wall)
        if measured is None:
            return wall
        speed, probe_s = measured
        wall, cpu = wall - probe_s, cpu - probe_s
        busy = max(0.0, min(cpu, wall))
        return wall - busy + busy * speed

    @property
    def speed(self) -> float | None:
        """Mean probe speed from child start to return."""
        measured = window(self.probes, self.started, self.ended)
        return None if measured is None else measured[0]

    @property
    def setup_s(self) -> float | None:
        return self.at_reference_speed(self.started, self.setup_wall_s, self.setup_cpu)

    @property
    def essays_per_s(self) -> float | None:
        loop = self.at_reference_speed(self.first_ensemble, self.loop_wall_s, self.loop_cpu)
        return None if loop is None else self.essays / loop

    @property
    def raw_essays_per_s(self) -> float | None:
        return None if self.loop_wall_s is None else self.essays / self.loop_wall_s


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; return (exit code, peak RSS in MB), killing it past ``timeout``.

    The wait blocks, so the benchmark uses no CPU while the child runs.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def invoke(setup: RunSetup, index: int, traced: bool, stub: Stub | None) -> Invocation:
    reference = setup.reference(index)
    config, out_dir = setup.invocation_config(index)
    result_path = config.parent / "child.json"
    log_path = config.parent / "child.log"
    with open(log_path, "wb") as log:
        inv = Invocation(index, traced, len(setup.slices[index]), started=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(config), str(result_path),
             "--trace", str(int(traced))],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(),
        )
        code, inv.rss_mb = wait_child(proc, CHILD_TIMEOUT_S)
        inv.ended = time.monotonic()
    if stub:
        inv.stub = stub.stats()
    if result_path.exists():
        inv.child = json.loads(result_path.read_text(encoding="utf-8"))
        inv.first_ensemble = inv.child.get("first_ensemble")
        inv.returned = inv.child.get("returned")
        first_cpu, returned_cpu = inv.child.get("first_ensemble_cpu"), inv.child.get("returned_cpu")
        if first_cpu is not None and returned_cpu is not None:
            inv.setup_cpu = first_cpu
            inv.loop_cpu = returned_cpu - first_cpu
        inv.probes = inv.child.get("probes", [])
    if code != 0 or inv.child.get("error"):
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        inv.problems.append(f"exit code {code}: {inv.child.get('error') or tail}")
    check(setup, inv, reference, out_dir)
    return inv


def check(setup: RunSetup, inv: Invocation, reference, out_dir: Path) -> None:
    """Output checks; essays covered by a failed check count as failed."""
    records_path = out_dir / "records.jsonl"
    actual = records_path.read_bytes() if records_path.exists() else b""
    actual_lines = set(actual.splitlines())
    bad_essays = sum(1 for line in reference.records.splitlines() if line not in actual_lines)
    problems = list(inv.problems)  # each fails every essay of the invocation
    if actual != reference.records and not bad_essays:
        problems.append("records.jsonl has extra or reordered lines")
    if setup.seed == DEFAULT_SEED:
        stored = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))[setup.workload.name][inv.index]
        if hashlib.sha256(actual).hexdigest() != stored["records_sha256"]:
            problems.append("records.jsonl SHA-256 differs from the stored seed-0 digest")
        if reference.request_digest != stored["request_digest"]:
            problems.append("request-text digest differs from the stored seed-0 digest")
        if reference.dry_run_chat_calls + reference.parse_retries != stored["chat_calls"]:
            problems.append("chat-call count differs from the stored seed-0 count")
    report_path = out_dir / "report.json"
    macro_f1 = json.loads(report_path.read_text())["macro_f1"] if report_path.exists() else None
    if macro_f1 != 1.0:
        problems.append(f"gold-echo macro F1 is {macro_f1}, not 1.000")
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    counters = inv.child.get("counters", {})
    if inv.traced:
        chat_calls = sum(1 for s in inv.child.get("spans", ()) if s[0] == "gateway.chat")
        retries = counters.get("parse_failures")
        if retries != reference.parse_retries:
            problems.append(f"{retries} parse retries, reference has {reference.parse_retries}")
        digest = text_set_digest(counters.get("chat_request_digests", []))
    else:
        chat_calls = manifest.get("chat_calls")
        digest = inv.stub.get("request_digest")
    if chat_calls != reference.dry_run_chat_calls + reference.parse_retries:
        problems.append(
            f"{chat_calls} chat calls, expected --dry-run estimate "
            f"{reference.dry_run_chat_calls} + {reference.parse_retries} parse retries"
        )
    if digest is not None and digest != reference.request_digest:
        problems.append("request-text digest differs from the reference pass")
    if setup.workload.live:
        if inv.stub.get("requests") != reference.distinct_requests:
            problems.append(f"stub served {inv.stub.get('requests')} requests, "
                            f"expected {reference.distinct_requests} distinct ones")
    elif manifest.get("backend_tags_used") != ["replay"]:
        problems.append(f"replay run used backends {manifest.get('backend_tags_used')}")
    inv.failed = inv.essays if problems else bad_essays
    if bad_essays:
        problems.append(f"{bad_essays} records differ from the reference pass")
    inv.problems = problems


def measure(setup: RunSetup, seconds: float, trace: bool, stub: Stub | None, run_start: float) -> list[Invocation]:
    """Run invocations over successive slices until ``seconds`` have passed.

    The seconds count reference passes and invocations. Traced mode
    alternates an untraced and a traced invocation of the same slice, so the
    tracing overhead compares like with like.
    """
    invocations: list[Invocation] = []
    rounds = 0
    min_rounds = 2 if trace else 3
    start = time.monotonic()
    while True:
        index = rounds % len(setup.slices)
        for traced in ((False, True) if trace else (False,)):
            inv = invoke(setup, index, traced, stub)
            invocations.append(inv)
            if traced:
                require_crossings(setup, inv)
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        if rounds >= min_rounds and now - start + per_round > seconds:
            break
        if now - run_start + per_round > RUN_BUDGET_S:
            break
    return invocations


def require_crossings(setup: RunSetup, inv: Invocation) -> None:
    """Fail loudly when a boundary this workload must cross recorded no calls."""
    if inv.problems:
        return
    seen = {s[0] for s in inv.child.get("spans", ())}
    missing = [n for n in COMMON_CROSSINGS + setup.workload.crossings if n not in seen]
    if missing:
        raise SystemExit(
            f"error: traced {setup.workload.name} recorded no calls at {', '.join(missing)}; "
            "a hook no longer sees its layer"
        )


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def span_stats(spans: list) -> dict:
    """Per span name: calls, total and self seconds, and each call's seconds."""
    children: dict = {}
    for name, start, end, span_id, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    stats: dict = {}
    for name, start, end, span_id, parent, *_ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "each": []})
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
        entry["each"].append((end - start) / 1e9)
    return stats


def percentile_ms(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] * 1000


def layer_metrics(setup: RunSetup, invocations: list[Invocation]) -> dict:
    traced = [inv for inv in invocations if inv.traced]
    untraced = [inv for inv in invocations if not inv.traced]
    per_pass = setup.test_count / setup.workload.slice_size
    rows = []
    each: dict = {"gateway.chat": [], "ensemble.run_ensemble": []}
    for inv in traced:
        stats = span_stats(inv.child.get("spans", []))
        c = inv.child.get("counters", {})

        def get(name, key):
            return stats.get(name, {}).get(key, 0)

        for name in each:
            each[name].extend(stats.get(name, {}).get("each", []))
        reads = get("gateway.store.get_chat", "calls") + get("gateway.store.get_embedding", "calls")
        embed_calls = get("gateway.embed", "calls")
        rows.append({
            "corpus.load_corpus.s": get("corpus.load_corpus", "s"),
            "selection.rank_neighbors.calls": get("selection.rank_neighbors", "calls") * per_pass,
            "selection.rank_neighbors.self_s": get("selection.rank_neighbors", "self_s") * per_pass,
            "gateway.embed.calls": embed_calls * per_pass,
            "gateway.embed.self_s": get("gateway.embed", "self_s") * per_pass,
            "gateway.embed.distinct_ratio": c.get("embed_distinct", 0) / embed_calls if embed_calls else 0.0,
            "gateway.cosine_similarity.calls": get("gateway.cosine_similarity", "calls") * per_pass,
            "gateway.cosine_similarity.s": get("gateway.cosine_similarity", "s") * per_pass,
            "gateway.chat.calls": get("gateway.chat", "calls") * per_pass,
            "gateway.chat.self_s": get("gateway.chat", "self_s") * per_pass,
            "gateway.chat.wait_s": inv.stub.get("service_s", 0.0) * per_pass,
            "gateway.chat.inflight_max": c.get("chat_inflight_max", 0),
            "gateway.store.reads": reads * per_pass,
            "gateway.store.read_s": (get("gateway.store.get_chat", "s")
                                     + get("gateway.store.get_embedding", "s")) * per_pass,
            "gateway.store.embed_read_s": get("gateway.store.get_embedding", "s") * per_pass,
            "gateway.store.chat_read_s": get("gateway.store.get_chat", "s") * per_pass,
            "gateway.store.read_mb": c.get("store_read_bytes", 0) / 1e6 * per_pass,
            "gateway.store.hit_ratio": c.get("store_hits", 0) / reads if reads else 0.0,
            "gateway.store.writes": (get("gateway.store.put_chat", "calls")
                                     + get("gateway.store.put_embedding", "calls")) * per_pass,
            "gateway.store.write_s": (get("gateway.store.put_chat", "s")
                                      + get("gateway.store.put_embedding", "s")) * per_pass,
            "prompting.build_info_block.s": get("prompting.build_info_block", "s"),
            "prompting.build_prompt.calls": get("prompting.build_prompt", "calls") * per_pass,
            "prompting.build_prompt.self_s": get("prompting.build_prompt", "self_s") * per_pass,
            "prompting.prompt_kb": c.get("prompt_bytes", 0) / 1024 * per_pass,
            "prompting.parse_response.s": get("prompting.parse_response", "s") * per_pass,
            "prompting.parse_retries": c.get("parse_failures", 0) * per_pass,
            "features.extract_structural.calls": get("features.extract_structural", "calls") * per_pass,
            "features.extract_structural.s": get("features.extract_structural", "s") * per_pass,
            "ensemble.run_ensemble.s": get("ensemble.run_ensemble", "s") * per_pass,
            "ensemble.majority_vote.s": get("ensemble.majority_vote", "s") * per_pass,
            "metrics.aggregate_runs.s": get("metrics.aggregate_runs", "s"),
            "cli.run.self_s": get("cli.run", "self_s"),
            "upstream_requests_per_essay": inv.stub.get("requests", 0) / inv.essays,
        })
    metrics = {name: median(row[name] for row in rows) for name in rows[0]} if rows else {}
    metrics["gateway.chat.ms_p50"] = percentile_ms(each["gateway.chat"], 50)
    metrics["gateway.chat.ms_p95"] = percentile_ms(each["gateway.chat"], 95)
    metrics["ensemble.run_ensemble.ms_p50"] = percentile_ms(each["ensemble.run_ensemble"], 50)
    metrics["ensemble.run_ensemble.ms_p90"] = percentile_ms(each["ensemble.run_ensemble"], 90)
    plain = median(inv.essays_per_s for inv in untraced)
    with_trace = median(inv.essays_per_s for inv in traced)
    metrics["trace.overhead_pct"] = (plain / with_trace - 1.0) * 100 if with_trace else 0.0
    return metrics


# One sample per untraced invocation for each end-to-end metric.
E2E_SAMPLES = {
    "essays_per_s": lambda inv: inv.essays_per_s,
    "setup_s": lambda inv: inv.setup_s,
    "peak_rss_mb": lambda inv: inv.rss_mb,
}


def end_to_end_metrics(invocations: list[Invocation]) -> dict:
    untraced = [inv for inv in invocations if not inv.traced]
    return {name: median(sample(inv) for inv in untraced) for name, sample in E2E_SAMPLES.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.monotonic()
    workload = WORKLOADS[name]
    work_dir = WORK_ROOT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    stub = None
    try:
        setup = RunSetup(workload, seed, work_dir)
        if workload.live:
            stub = Stub(setup)
            setup.base_url = stub.url
        invocations = measure(setup, seconds, trace, stub, run_start)
        metrics = layer_metrics(setup, invocations) if trace else end_to_end_metrics(invocations)
    finally:
        if stub:
            stub.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    attempted = sum(inv.essays for inv in invocations)
    failed = sum(inv.failed for inv in invocations)
    report(workload, seed, trace, invocations, metrics, attempted, failed)
    units = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def report(workload, seed, trace, invocations, metrics, attempted, failed) -> None:
    """Human-readable lines: every metric with its unit, sample counts and failures."""
    untraced = [inv for inv in invocations if not inv.traced]
    print(f"workload {workload.name}, seed {seed}, trace {int(trace)}: {len(invocations)} "
          f"invocations of {workload.slice_size} test essays, {attempted} essays attempted, "
          f"{failed} failed")
    for inv in invocations:
        for problem in inv.problems:
            print(f"  FAILED slice {inv.index} ({'traced' if inv.traced else 'untraced'}): {problem}")
    if trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<36} {metrics[name]:>14.6f} {unit}")
        return
    for name, unit, _, bound in END_TO_END:
        q1, q3 = quartiles([E2E_SAMPLES[name](inv) for inv in untraced])
        samples = " ".join(f"{E2E_SAMPLES[name](inv) or 0:.4f}" for inv in untraced)
        print(f"  {name:<36} {metrics[name]:>14.6f} {unit}  (median of {len(untraced)}; "
              f"quartiles {q1:.6f}..{q3:.6f}; bound {bound}; samples {samples})")
    for name, sample, unit in (("speed", lambda inv: inv.speed, "x"),
                               ("essays_per_s as measured", lambda inv: inv.raw_essays_per_s, "1/s"),
                               ("setup_s as measured", lambda inv: inv.setup_wall_s, "s")):
        values = [sample(inv) for inv in untraced]
        samples = " ".join(f"{v or 0:.4f}" for v in values)
        print(f"  {name:<36} {median(values):>14.6f} {unit}  (samples {samples})")
    stub_requests = sum(inv.stub.get("requests", 0) for inv in untraced)
    essays = sum(inv.essays for inv in untraced)
    print(f"  {'essay_fail_ratio':<36} {failed / attempted:>14.6f} ratio")
    print(f"  {'upstream_requests_per_essay':<36} {stub_requests / essays:>14.6f} count")


def record_expected() -> None:
    """Write the seed-0 reference digests that every seed-0 run is checked against."""
    expected = {}
    for name, workload in WORKLOADS.items():
        work_dir = WORK_ROOT / f"expected-{name}-{os.getpid()}"
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            setup = RunSetup(workload, DEFAULT_SEED, work_dir)
            expected[name] = []
            for index in range(len(setup.slices)):
                ref = setup.reference(index)
                expected[name].append({
                    "records_sha256": hashlib.sha256(ref.records).hexdigest(),
                    "request_digest": ref.request_digest,
                    "chat_calls": ref.dry_run_chat_calls + ref.parse_retries,
                })
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_FILE}")


def main() -> None:
    # Turn SIGTERM into SystemExit so the finally blocks stop the stub and child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    if args.record_expected:
        record_expected()
        return
    if args.all:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, args.seconds, trace)
                ok = ok and result["correct"]
                print(json.dumps(result))
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
        sys.exit(0 if ok else 1)
    if args.workload is None:
        parser.error("--workload is required without --all or --record-expected")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
