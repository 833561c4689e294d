"""Run one `lsaf` command in this fresh process and report its timings.

    python3 perfbench/child.py --report out.json [--trace] [--probe] -- <lsaf args>

The command goes through `lsaf.cli.main`, the entry point of the `lsaf`
console script. Untraced, only the calls behind the end-to-end metrics are
timed: the first `LsafModel.forward` (then the original method is put back),
every `predict` and the `train` call. `--trace` wraps every layer (see
`spans.instrument`). `--probe` stops the command at its first model
forward, to sample set-up time alone. The report is written at exit.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.monotonic()


def peak_rss_kib() -> int:
    """High-water resident set of this process image (VmHWM). Not ru_maxrss:
    Linux carries the parent's high-water mark across fork and exec, so a
    large benchmark process would inflate it."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class _ProbeDone(BaseException):
    """Raised at the first forward of a probe; passes every lsaf handler."""


def _hook_end_to_end(report: dict, probe: bool) -> None:
    import importlib

    cli = importlib.import_module("lsaf.cli")
    train_mod = importlib.import_module("lsaf.train")
    model_cls = importlib.import_module("lsaf.model").LsafModel
    forward = model_cls.forward

    def first_forward(self, *args, **kwargs):
        report["t_first_forward"] = time.monotonic()
        model_cls.forward = forward
        if probe:
            raise _ProbeDone
        return forward(self, *args, **kwargs)

    model_cls.forward = first_forward

    def timed_predict(fn):
        def predict(model, patches, *args, **kwargs):
            start = time.monotonic()
            try:
                return fn(model, patches, *args, **kwargs)
            finally:
                report["predict_s"] += time.monotonic() - start
                report["predict_pixels"] += len(patches)
        return predict

    cli.predict = timed_predict(cli.predict)
    train_mod.predict = timed_predict(train_mod.predict)
    train = cli.train

    def timed_train(model, train_set, config, *args, **kwargs):
        start = time.monotonic()
        try:
            return train(model, train_set, config, *args, **kwargs)
        finally:
            report["train_s"] += time.monotonic() - start
            epochs = config.epochs - kwargs.get("start_epoch", 0)
            report["train_samples"] += len(train_set) * epochs

    cli.train = timed_train


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, lsaf_args = argv[:split], argv[split + 1:]
    report_path = own[own.index("--report") + 1]
    trace = "--trace" in own
    probe = "--probe" in own
    report = {"t_start": T_START, "t_first_forward": None, "predict_s": 0.0,
              "predict_pixels": 0, "train_s": 0.0, "train_samples": 0}

    import lsaf.cli  # sets the BLAS thread caps from LSAF_THREADS before numpy loads

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    _hook_end_to_end(report, probe)
    try:
        code = lsaf.cli.main(lsaf_args)
    except _ProbeDone:
        code = 0
    report["exit_code"] = code
    report["peak_rss_kib"] = peak_rss_kib()
    if tracer is not None:
        report["layers"] = spans.layer_metrics(
            tracer.spans, tracer.counters, tracer.predicted_pixels)
    with open(report_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
