"""The measured process of one benchmark run.

Started by ``run.py``; not meant to be run by hand.  Sets up the workload
once from a cold start, then repeats passes of its fixed work until the
next pass would end after ``--seconds``.  Before every pass after the
first, the program's module caches are emptied and the inputs are built
again, untimed, so every pass does the same work from empty caches.  With
``--trace 1`` the first pass is untraced and traced and untraced passes
then alternate, so every traced pass is a warm one like its untraced
neighbours.

Prints one JSON line: the monotonic clock at the start of the first pass
(the parent turns it into the set-up time), the wall and CPU time of every
pass, raw and at the probe's reference speed, with its probe times, the
peak resident memory, the operation outcomes and, for traced passes, the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed

MIN_PASSES = 3


class SegmentTimer:
    """Times the segments of one pass and the host-speed probes between them.

    ``between()`` is called before the pass, at the workload's fixed points
    inside it, and after it.  It closes the running segment, runs one probe
    untimed as far as the pass is concerned, and opens the next segment.
    A segment's time at reference speed is its time scaled by the probe's
    reference time over the mean of the two probes around it.
    """

    def __init__(self) -> None:
        self.segments: list[tuple[float, float]] = []
        self.probes: list[tuple[float, float]] = []
        self._open: tuple[float, float] | None = None

    @staticmethod
    def _clock() -> tuple[float, float]:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), ru.ru_utime + ru.ru_stime

    def between(self) -> None:
        now = self._clock()
        if self._open is not None:
            self.segments.append((now[0] - self._open[0], now[1] - self._open[1]))
        self.probes.append(hostspeed.probe())
        self._open = self._clock()

    def summary(self) -> dict:
        ref = hostspeed.REFERENCE_S
        wall_ref = cpu_ref = 0.0
        for i, (wall, cpu) in enumerate(self.segments):
            before, after = self.probes[i], self.probes[i + 1]
            wall_ref += wall * ref / ((before[0] + after[0]) / 2)
            cpu_ref += cpu * ref / ((before[1] + after[1]) / 2)
        return {"wall_s": sum(w for w, _ in self.segments),
                "cpu_s": sum(c for _, c in self.segments),
                "wall_ref_s": wall_ref, "cpu_ref_s": cpu_ref,
                "probe_s": [w for w, _ in self.probes]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import quermass

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(quermass.__file__).resolve().parents:
        print(f"quermass imported from {quermass.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    tracer_cls = None
    if args.trace:
        import layer_trace

        tracer_cls = layer_trace.Tracer

    passes = []
    t_start = None
    while True:
        traced = tracer_cls is not None and len(passes) % 2 == 1
        tracer = None
        if passes:
            workloads.reset_caches()
        if traced:
            tracer = tracer_cls()
            tracer.install()
        state = setup(args.seed, out_dir)
        if t_start is None:
            t_start = time.monotonic()

        timer = SegmentTimer()
        timer.between()
        result = run(state, timer.between)
        timer.between()

        layers = None
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.metrics(result if isinstance(result, list) else [])
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.npz")

        outcomes = check(state, result)
        for oc in outcomes:
            if oc.status != "ok":
                print(f"{args.workload} seed {args.seed}: {oc.status} {oc.name}: "
                      f"{oc.detail}", file=sys.stderr)
        passes.append(dict(
            timer.summary(), traced=traced, layers=layers,
            attempted=len(outcomes),
            errors=sum(oc.status == "error" for oc in outcomes),
            wrong=sum(oc.status == "wrong" for oc in outcomes)))
        print(f"{args.workload} seed {args.seed} pass {len(passes)}"
              f"{' (traced)' if traced else ''}: wall {passes[-1]['wall_s']:.3f} s,"
              f" at reference speed {passes[-1]['wall_ref_s']:.3f} s",
              file=sys.stderr)
        done = len(passes)
        elapsed = time.monotonic() - t_start
        enough = done >= MIN_PASSES and (not tracer_cls or done % 2 == 0)
        if enough and elapsed * (done + 1) / done > args.seconds:
            break

    doc = {
        "t_start": t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
