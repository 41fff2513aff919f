"""One measured invocation of the temposcore CLI, in a process of its own.

    python3 bench/child.py SPAWN_T TRACE_FILE -- CLI_ARGS...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes). TRACE_FILE is ``-``
for an untraced run. The last stdout line is a JSON object with
``rc``, ``setup_s`` (process start to ready: interpreter, ``import
temposcore`` and, for simulate, ``load_scenario``), ``command_s`` (the
command without that load), ``main_s`` (the whole ``cli.main`` call) and
``peak_rss_mb``.

The peak is the kernel's high-water mark of this process image (``VmHWM``).
``ru_maxrss`` would not do: Linux carries the forking parent's resident size
over into it at exec, so it reads the benchmark's memory, not the program's.
"""

import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawn_t, trace_file = float(sys.argv[1]), sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import json

    import temposcore
    from temposcore import cli

    ready = time.monotonic()
    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(temposcore)

    load_s = [0.0]
    load_scenario = cli.load_scenario

    def timed_load(path):
        t = time.perf_counter()
        try:
            return load_scenario(path)
        finally:
            load_s[0] += time.perf_counter() - t

    cli.load_scenario = timed_load
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.write(trace_file)
    print(json.dumps({
        "rc": rc,
        "setup_s": ready - spawn_t + load_s[0],
        "command_s": main_s - load_s[0],
        "main_s": main_s,
        "peak_rss_mb": peak_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
