"""Run one ``atc-icl run --config CONFIG`` in this process, with benchmark hooks.

Untraced (``--trace 0``) the only hook is the first call into
``ensemble.run_ensemble``, which ends set-up. Traced (``--trace 1``) every
public function the benchmark measures is wrapped: each call records a span
(name, start, end, parent span, essay id as request id) in memory, and the
spans are written to the result file once the command has returned. In both
modes a timer interrupts the command every ``calibrate.PERIOD_S`` to run one
speed probe.

The result file is JSON with monotonic-clock times in seconds:
``first_ensemble``, ``returned``, ``error``; the process CPU time (user +
system, ``time.process_time``) at both marks as ``first_ensemble_cpu`` and
``returned_cpu``; ``probes``, the (start, end) of every speed probe (see
``calibrate.py``); and when traced ``spans`` and ``counters``.

Usage:
    python3 perfbench/child.py CONFIG RESULT_JSON --trace 0|1
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import threading
import time
import traceback

import calibrate

# (module, attribute) of every traced boundary; "Class.method" patches the class.
TRACED = (
    ("corpus", "load_corpus"),
    ("selection", "rank_neighbors"),
    ("gateway", "cosine_similarity"),
    ("gateway", "Gateway.embed"),
    ("gateway", "Gateway.chat"),
    ("gateway", "ResponseStore.get_chat"),
    ("gateway", "ResponseStore.get_embedding"),
    ("gateway", "ResponseStore.put_chat"),
    ("gateway", "ResponseStore.put_embedding"),
    ("prompting", "build_info_block"),
    ("prompting", "build_prompt"),
    ("prompting", "parse_response"),
    ("features", "extract_structural"),
    ("ensemble", "run_ensemble"),
    ("ensemble", "majority_vote"),
    ("metrics", "aggregate_runs"),
)


def replace_everywhere(original, replacement) -> int:
    """Rebind every ``atc_icl`` module global that refers to ``original``.

    Modules import functions by name (``from .corpus import load_corpus``), so
    patching only the defining module would miss those callers.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("atc_icl") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class ProcIO:
    """Bytes this process has read through system calls, from /proc/self/io."""

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/io", os.O_RDONLY)

    def rchar(self) -> tuple[int, int]:
        """(rchar, bytes this call itself read), so callers can subtract the probe."""
        text = os.pread(self._fd, 512, 0)
        start = text.index(b"rchar: ") + 7
        return int(text[start : text.index(b"\n", start)]), len(text)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters = {
            "embed_texts": set(), "chat_request_digests": [], "prompt_bytes": 0,
            "parse_failures": 0, "chat_inflight": 0, "chat_inflight_max": 0,
            "store_hits": 0, "store_misses": 0, "store_read_bytes": 0,
        }
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._io = ProcIO()
        # Imported here, so untraced runs do not pay for the stub's imports in set-up.
        from stub import request_text_digest

        self._request_digest = request_text_digest

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span_name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent, request_id = stack[-1] if stack else (None, None)
            if span_name == "ensemble.run_ensemble":
                request_id = (args[0] if args else kwargs["query"]).essay_id
            state = before(args, kwargs) if before else None
            stack.append((span_id, request_id))
            start = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_name, start, end, span_id, parent, request_id))
                if after:
                    after(state, result if ok else None, ok)
        return traced

    # Per-boundary counters, kept where the work happens.
    def _embed_before(self, args, kwargs):
        self.counters["embed_texts"].add(args[1] if len(args) > 1 else kwargs["text"])

    def _chat_before(self, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        with self._lock:
            c = self.counters
            c["prompt_bytes"] += len(request.user_text.encode("utf-8"))
            c["chat_request_digests"].append(self._request_digest(request.system_text, request.user_text))
            c["chat_inflight"] += 1
            c["chat_inflight_max"] = max(c["chat_inflight_max"], c["chat_inflight"])

    def _chat_after(self, state, result, ok):
        with self._lock:
            self.counters["chat_inflight"] -= 1

    def _read_before(self, args, kwargs):
        return self._io.rchar()

    def _read_after(self, state, result, ok):
        before, probe = state
        after, _ = self._io.rchar()
        with self._lock:
            c = self.counters
            c["store_read_bytes"] += after - before - probe
            c["store_hits" if result is not None else "store_misses"] += 1

    def _parse_after(self, state, result, ok):
        if not ok:
            with self._lock:
                self.counters["parse_failures"] += 1

    def install(self, modules: dict) -> None:
        extras = {
            "Gateway.embed": (self._embed_before, None),
            "Gateway.chat": (self._chat_before, self._chat_after),
            "ResponseStore.get_chat": (self._read_before, self._read_after),
            "ResponseStore.get_embedding": (self._read_before, self._read_after),
            "parse_response": (None, self._parse_after),
        }
        for module_name, attr in TRACED:
            module = modules[module_name]
            before, after = extras.get(attr, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                span_name = f"{module_name}.{'store.' if cls_name == 'ResponseStore' else ''}{method}"
                setattr(cls, method, self.wrap(span_name, getattr(cls, method), before, after))
            else:
                original = getattr(module, attr)
                replace_everywhere(original, self.wrap(f"{module_name}.{attr}", original, before, after))
        run_command = modules["cli"].run
        run_command.callback = self.wrap("cli.run", run_command.callback)

    def export(self) -> dict:
        counters = dict(self.counters)
        counters["embed_distinct"] = len(counters.pop("embed_texts"))
        del counters["chat_inflight"]
        return {"spans": self.spans, "counters": counters}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    probes: list = []
    signal.signal(signal.SIGALRM, lambda *_: probes.append(calibrate.probe()))
    signal.setitimer(signal.ITIMER_REAL, calibrate.PERIOD_S, calibrate.PERIOD_S)

    import importlib

    modules = {
        name: importlib.import_module(f"atc_icl.{name}")
        for name in ("cli", "corpus", "selection", "gateway", "prompting",
                     "features", "ensemble", "metrics")
    }
    result: dict = {"first_ensemble": None, "returned": None, "error": None,
                    "first_ensemble_cpu": None, "returned_cpu": None, "probes": []}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(modules)
    ensemble = modules["ensemble"]
    run_ensemble = ensemble.run_ensemble

    def mark_first(*a, **kw):
        if result["first_ensemble"] is None:
            result["first_ensemble"] = time.monotonic()
            result["first_ensemble_cpu"] = time.process_time()
        return run_ensemble(*a, **kw)

    if not replace_everywhere(run_ensemble, mark_first):
        raise SystemExit("hook failed: nothing refers to ensemble.run_ensemble")

    code = 0
    try:
        modules["cli"].main(["run", "--config", args.config], standalone_mode=False)
    except Exception:  # the benchmark reports the failure; the run counts as failed
        result["error"] = traceback.format_exc()
        code = 1
    result["returned"] = time.monotonic()
    result["returned_cpu"] = time.process_time()
    signal.setitimer(signal.ITIMER_REAL, 0)
    result["probes"] = probes
    if tracer:
        result.update(tracer.export())
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
