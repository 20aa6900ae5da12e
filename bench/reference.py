"""The fixed computation that the benchmark's times are measured against.

`loop` never calls cyltab and must not change: it is the unit.  The
in-process workloads time it between their operations.  Run as a script,
a fresh interpreter runs it PROCESS_LOOPS times; set-up times are divided
by the wall time of that process, which pays for interpreter start-up and
pure-Python work much as a set-up does.
"""

PROCESS_LOOPS = 20
# What `loop` and the script take at the nominal speed: the faster of the
# speed levels seen on the shared 2-vCPU machine the benchmark was tuned on.
NOMINAL_LOOP_S = 1.25e-3
NOMINAL_PROCESS_S = 0.08


def loop() -> None:
    table = {}
    for i in range(3000):
        table[i % 97, i] = [i, 2 * i]
        tuple(table[i % 97, i])


if __name__ == "__main__":
    for _ in range(PROCESS_LOOPS):
        loop()
