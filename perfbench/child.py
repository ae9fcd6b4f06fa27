"""One benchmark iteration in a fresh interpreter.

    python3 child.py SPAWNED [SPEC_JSON]

SPAWNED is time.monotonic() in the parent just before the spawn; the child
times `import randbc.cli` from it.  Without SPEC_JSON it prints that set-up
time and exits.  SPEC_JSON holds `steps` (CLI argv lists), `trace`, `result`
(the path to write) and `spans`.  The child then times the `cli.main` calls
from the first call until the last returns (the last manifest.json is
written just before), sampling the interpreter's speed throughout, and
writes one JSON result.
"""
import signal
import sys
import time

SAMPLE_STEPS = 10_000     # one speed sample: about 2 ms
SAMPLE_PERIOD_S = 0.1


def calibrate(n=SAMPLE_STEPS):
    """Thread CPU seconds for a fixed pure-Python loop of complex arithmetic
    and calls.

    It measures how fast this interpreter runs at the moment, independent of
    randbc, so that run.py can scale times to a reference speed.  Thread CPU
    time leaves out the time the loop waits for the interpreter lock while
    the CLI's worker threads hold it.
    """
    def step(z, c):
        return z * c + 1e-3 / (1.0 + abs(z))

    start = time.thread_time()
    z, c = 0.5 + 0.25j, 0.999 + 0.001j
    for _ in range(n):
        z = step(z, c)
    return time.thread_time() - start


class SpeedSampler:
    """Samples `calibrate()` every SAMPLE_PERIOD_S of wall time while the
    `with` block runs, and once on entry and on exit.

    The machine's speed changes by tens of percent within seconds, so
    samples taken only before and after a run miss most of it.  A SIGALRM
    handler runs the samples on the main thread, between the workload's
    bytecodes.  `cal_s` holds every sample; `spent_s` is the wall time the
    handler took inside the block, which the caller subtracts.
    """

    def __init__(self):
        self.cal_s = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.monotonic()
        self.cal_s.append(calibrate())
        self.spent_s += time.monotonic() - start

    def __enter__(self):
        self.cal_s.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.cal_s.append(calibrate())
        return False


def run(setup_s, spec_path):
    import json
    import resource

    import numpy
    import scipy

    import randbc.cli

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    codes = []
    try:
        with SpeedSampler() as sampler:
            start = time.monotonic()
            try:
                for argv in spec["steps"]:
                    codes.append(randbc.cli.main(argv))
            finally:
                wall_s = time.monotonic() - start - sampler.spent_s
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": sampler.cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_codes": codes,
        "versions": {"backend": randbc.BACKEND, "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.save(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    spawned = float(sys.argv[1])
    import randbc.cli  # noqa: F401
    setup = time.monotonic() - spawned
    if len(sys.argv) > 2:
        run(setup, sys.argv[2])
    else:
        print(setup)
