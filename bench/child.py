"""One measurement in a fresh interpreter; prints one JSON line.

    child.py setup CONFIG                   import voho, load and validate CONFIG
    child.py study CONFIG OUT_DIR WORKERS   run the study untraced
    child.py trace CONFIG OUT_DIR           run it on one worker with a span
                                            around every call into a layer

The parent runs it in the workload's directory, whose files the config
names, with PYTHONPATH set to the checkout's `src`.  Spans are taken from
outside the program: each layer's public function is replaced, in every
loaded `voho` module that refers to it, by a wrapper that times the call.
Only the outermost span is charged, so spans never overlap, and the
counting done after a call is outside its span.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, public function, span name)
LAYER_FUNCTIONS = (
    ("voho.ingest", "load_prices", "ingest.load"),
    ("voho.ingest", "generate_synthetic_path", "ingest.synth"),
    ("voho.ingest", "filter_eligible", "ingest.filter"),
    ("voho.ingest", "log_returns", "ingest.returns"),
    ("voho.quantise", "quantile_bins", "quantise.bins"),
    ("voho.homogenise", "decompose", "homogenise.decompose"),
    ("voho.homogenise", "skeleton_to_symbols", "homogenise.to_symbols"),
    ("voho.ctw", "entropy_rate", "ctw.entropy"),
    ("voho.stats", "kernel_density", "stats.kde"),
    ("voho.stats", "correlation_matrix", "stats.corr"),
    ("voho.stats", "delta_summary", "stats.summary"),
)


class Tracer:
    """Busy seconds per span and the work counts seen at each boundary."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.ctw_busy: dict[int, float] = defaultdict(float)  # by alphabet size
        self.calls: Counter = Counter()
        self.rows = 0
        self.samples = 0
        self.events: dict[str, int] = defaultdict(int)
        self.bin_symbols = 0
        self.sequences: list[tuple[object, int, int]] = []  # (symbols, alphabet, depth)
        self._open = 0

    def install(self) -> None:
        for module, name, span in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module), name)
            wrapper = self._wrap(span, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "voho" or loaded_name.startswith("voho."):
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def _wrap(self, span, fn):
        def traced(*args, **kwargs):
            self._open += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open -= 1
            if self._open == 0:
                self.busy[span] += elapsed
                if span == "ctw.entropy":
                    self.ctw_busy[result.alphabet_size] += elapsed
            self.calls[span] += 1
            self._observe(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, span, args, kwargs, result) -> None:
        if span == "ingest.load":
            self.rows += sum(len(s) for s in result)
        elif span == "ingest.synth":
            self.rows += len(result)
        elif span == "quantise.bins":
            self.bin_symbols += len(result)
        elif span == "homogenise.decompose":
            delta = args[1] if len(args) > 1 else kwargs["delta"]
            self.samples += len(args[0])
            self.events[f"delta_{delta:g}"] += len(result)
        elif span == "ctw.entropy":
            seq = args[0] if args else kwargs["seq"]
            self.sequences.append((getattr(seq, "symbols", seq), result.alphabet_size, result.depth))


def _trace(voho, config) -> dict:
    import numpy as np
    from reference import count_contexts

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    voho.run_study(config, threads=1)
    serial_s = time.perf_counter() - start
    symbols = {2: 0, 4: 0}
    contexts = 0
    for seq, m, depth in tracer.sequences:
        arr = np.asarray(seq, dtype=np.int64)
        symbols[m] += arr.size
        contexts += count_contexts(arr, m, depth)
    out = Path(config.out_dir)
    files = [p for p in out.iterdir() if p.is_file()]
    with open(out / "entropy.csv", encoding="utf-8") as fh:
        scored = sum(1 for line in fh if ",delta_" in line)
    return {
        "serial_s": serial_s,
        "busy": dict(tracer.busy),
        "ctw_busy_m2": tracer.ctw_busy[2],
        "ctw_busy_m4": tracer.ctw_busy[4],
        "calls": dict(tracer.calls),
        "rows": tracer.rows,
        "samples": tracer.samples,
        "events": dict(tracer.events),
        "skeletons_scored": scored,
        "bin_symbols": tracer.bin_symbols,
        "symbols_m2": symbols[2],
        "symbols_m4": symbols[4],
        "contexts": contexts,
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def main(argv: list[str]) -> int:
    mode, config_path = argv[1], argv[2]
    start = time.perf_counter()
    import voho

    config = voho.config_from_json(config_path)
    errors = voho.validate_config(config)
    setup_s = time.perf_counter() - start
    if Path(voho.__file__).resolve().parent.parent != SRC:
        print(f"voho imported from {voho.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if errors:
        print(f"invalid config: {errors}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    config.out_dir = argv[3]
    if mode == "trace":
        print(json.dumps(_trace(voho, config)))
        return 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    voho.run_study(config, threads=int(argv[4]))
    study_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    print(json.dumps({"study_s": study_s, "cpu_s": cpu_s, "peak_rss_mb": after.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
