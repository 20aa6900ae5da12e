"""The benchmark's four workloads: seeded inputs, one operation, and its oracle.

Every workload is a closed loop with a single caller: the worker issues an
operation, waits for it to return, checks it, and only then issues the next.
The seed picks which instances run; it never changes how many operations of
each size class a cycle holds, so the load stays comparable across seeds.

The library is reached only through module attributes (``enumeration.verify_cauchy``
rather than a name imported from it), so the wrappers the tracer binds to
those attributes are called from here too.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import reference

cli = importlib.import_module("cyltab.cli")
crsk = importlib.import_module("cyltab.crsk")
enumeration = importlib.import_module("cyltab.enumeration")
geometry = importlib.import_module("cyltab.geometry")
marbles = importlib.import_module("cyltab.marbles")
serialization = importlib.import_module("cyltab.serialization")
words = importlib.import_module("cyltab.words")

# What a console-script `cyltab` does, without needing the package installed.
CLI_ENTRY = "import sys; from cyltab.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An operation returned, but its output failed the workload's oracle."""


class Workload:
    """A fixed pool of seeded inputs, the timed operation, and its oracle.

    A run replays the pool in cycles, each in a fresh seeded order, and
    stops only at a cycle boundary, so it executes whole cycles of the class
    mix and every input recurs once per cycle.  ``prefix`` is the number of
    leading operations covered by the output digest, and the number of
    operations a traced run executes.
    """

    name = ""
    pool: list
    # True when operations run in child processes, whose peak memory counts.
    child_processes = False
    # Traced runs set this so that every operation runs in this process,
    # where the wrappers can see it; only the cli workload has a choice.
    inprocess = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    @property
    def cycle(self) -> int:
        return len(self.pool)

    @property
    def prefix(self) -> int:
        return self.cycle

    def classes(self) -> dict[str, int]:
        """Operations per cycle in each size class; the same for every seed."""
        raise NotImplementedError

    def stream(self) -> Iterator[object]:
        """The endless, seed-determined sequence of operation inputs."""
        while True:
            order = list(self.pool)
            self.rng.shuffle(order)
            yield from order

    def run(self, op: object) -> object:
        """The timed operation."""
        raise NotImplementedError

    def check(self, op: object, out: object) -> None:
        """Raise CheckFailed unless the output passes the oracle."""
        raise NotImplementedError

    def canon(self, op: object, out: object) -> bytes:
        """Canonical bytes of the output, for the run's digest."""
        raise NotImplementedError

    def run_ops(self, seconds: float) -> int | None:
        """A fixed number of operations for a run, or None to stop on time."""
        return None

    def reference(self) -> None:
        """A fixed computation, timed alongside the operations.

        The end-to-end times are reported in multiples of its time.
        """
        reference.loop()


def _stratified(rng: random.Random, candidates: list, count: int) -> list:
    """One candidate from each of `count` contiguous strata of the list.

    Candidate lists are ordered so that neighbours cost about the same, so
    the seed changes which instances run but barely changes the class total.
    """
    picks = []
    for i in range(count):
        lo = i * len(candidates) // count
        hi = max(lo + 1, (i + 1) * len(candidates) // count)
        picks.append(candidates[rng.randrange(lo, hi)])
    return picks


def _json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# identity: exact identity checks at degree budgets.


def _windows(k: int, n: int) -> list[tuple[int, ...]]:
    """Windows of the cylindric partitions on (k, n), translated to end in 0."""
    width = n - k
    return [
        w + (0,)
        for w in itertools.product(range(width, -1, -1), repeat=k - 1)
        if all(w[i] >= w[i + 1] for i in range(k - 2))
    ]


def _excess(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Boxes of a outside b, for windows or zero-padded regular partitions."""
    size = max(len(a), len(b))
    a, b = a + (0,) * (size - len(a)), b + (0,) * (size - len(b))
    return sum(max(0, x - y) for x, y in zip(a, b))


def _close_pairs(k: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Shape pairs at most two boxes apart: every degree level contributes terms."""
    ws = _windows(k, n)
    return [(a, b) for a in ws for b in ws if _excess(a, b) + _excess(b, a) <= 2]


_REGULAR = ((), (1,), (2,), (1, 1), (3,), (2, 1))


def _identity_classes() -> list[tuple[str, int, list[tuple]]]:
    """(class name, operations per cycle, candidates with like neighbours).

    Apart from the cheap `fcount` checks, a cycle takes one instance from
    each adjacent pair of a class's candidates, so each seed runs half of
    every class and the class totals vary little from seed to seed.
    """

    def cauchy(k, n, degrees, nvars):
        pairs = sorted(_close_pairs(k, n), key=lambda p: (_excess(*p), -_excess(p[1], p[0]), p))
        return [("cauchy", k, n, a, b, d, nvars) for d in degrees for a, b in pairs]

    def skew(degree):
        return [
            ("skew", a, b, degree, 2)
            for a in _REGULAR
            for b in _REGULAR
            if max(_excess(a, b), _excess(b, a)) < degree
        ]

    fcount = [
        ("fcount", k, n, a, b, m)
        for k, n in ((2, 5), (3, 6), (3, 7))
        for m in range(6, 11)
        for a, b in _close_pairs(k, n)
    ]
    oneschur = [("oneschur", 2, 5, a, d, 4) for d in (6, 7) for a in _windows(2, 5)]
    classes = [
        ("skew-d2", skew(2)),
        ("skew-d3", skew(3)),
        ("cauchy-d4", cauchy(3, 6, (4,), 3)),
        ("cauchy-d5", cauchy(3, 6, (5,), 3)),
        ("oneschur", oneschur),
    ]
    return [("fcount", 16, fcount)] + [(name, len(c) // 2, c) for name, c in classes]


class Identity(Workload):
    name = "identity"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._classes = _identity_classes()
        self.pool = [
            op
            for _, count, candidates in self._classes
            for op in _stratified(self.rng, candidates, count)
        ]

    def classes(self) -> dict[str, int]:
        return {name: count for name, count, _ in self._classes}

    def run(self, op):
        kind = op[0]
        if kind == "cauchy":
            _, k, n, a, b, degree, nvars = op
            params = geometry.CylParams(k, n)
            return enumeration.verify_cauchy(
                geometry.CylPartition(params, a),
                geometry.CylPartition(params, b),
                degree,
                nvars,
                nvars,
            )
        if kind == "oneschur":
            _, k, n, a, degree, nvars = op
            alpha = geometry.CylPartition(geometry.CylParams(k, n), a)
            return enumeration.verify_oneschur(alpha, degree, nvars)
        if kind == "fcount":
            _, k, n, a, b, m = op
            params = geometry.CylParams(k, n)
            return enumeration.verify_fcount(
                geometry.CylPartition(params, a), geometry.CylPartition(params, b), m
            )
        _, a, b, degree, nvars = op
        return enumeration.skew_reduction_cross_check(a, b, degree, nvars)

    @staticmethod
    def _reports(op, out):
        return (out,) if op[0] in ("cauchy", "oneschur") else out

    def check(self, op, out) -> None:
        if op[0] == "fcount":
            lhs, rhs = out
            if lhs != rhs or lhs <= 0:
                raise CheckFailed(f"{op}: counts {lhs} != {rhs}")
            return
        for report in self._reports(op, out):
            if not report.equal:
                raise CheckFailed(f"{op}: {len(report.mismatches)} mismatched coefficients")
            if report.lhs.is_zero():
                raise CheckFailed(f"{op}: vacuous identity, both sides are zero")

    def canon(self, op, out) -> bytes:
        if op[0] == "fcount":
            return _json(list(out))
        return _json([[r.lhs.terms(), r.rhs.terms()] for r in self._reports(op, out)])


# ---------------------------------------------------------------------------
# bijection: cylindric RSK round trips plus marble round trips of the result.


def _random_inner(rng: random.Random, params) -> tuple[int, ...]:
    """A partition window whose marble arrangement is a random composition."""
    k, width = params.k, params.width
    cuts = sorted(rng.randint(0, width) for _ in range(k - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [width])]
    window = [0]
    for c in counts[1:]:
        window.append(window[-1] - c)
    return tuple(window)


def _random_tableau(rng: random.Random, mu, letters: int):
    """Decode a random marble game of `letters` turns started at Arr(mu)."""
    arr = marbles.arrangement(mu)
    counts = list(arr.counts)
    k = len(counts)
    turns = []
    for _ in range(letters):
        turn = tuple(rng.randint(0, c) for c in counts)
        counts = [counts[i] - turn[i] + turn[i - 1] for i in range(k)]
        turns.append(turn)
    return marbles.game_to_tableau(mu, marbles.MarbleGame(arr, tuple(turns)))


def random_pair(rng: random.Random, k: int, letters: tuple[int, int]):
    """A pair (T, U) of nonempty tableaux sharing a random inner shape."""
    params = geometry.CylParams(k, k + 4)
    while True:
        mu = geometry.CylPartition(params, _random_inner(rng, params))
        t = _random_tableau(rng, mu, rng.randint(*letters))
        u = _random_tableau(rng, mu, rng.randint(*letters))
        if t.size() and u.size():
            return t, u


def _weight(t) -> Counter:
    return Counter(v for row in t.rows for v in row)


def _tableau_doc(t) -> list:
    return [list(t.outer.window), list(t.inner.window), [list(r) for r in t.rows]]


class Bijection(Workload):
    name = "bijection"
    BANDS = ((6, 8), (9, 12))
    PER_CLASS = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.pool = [
            random_pair(self.rng, k, band)
            for k in (3, 4, 5)
            for band in self.BANDS
            for _ in range(self.PER_CLASS)
        ]

    def classes(self) -> dict[str, int]:
        return {
            f"k{k}-letters{lo}-{hi}": self.PER_CLASS
            for k in (3, 4, 5)
            for lo, hi in self.BANDS
        }

    def run(self, op):
        t, u = op
        out = crsk.crsk(t, u)
        back = crsk.crsk_inverse(out.p, out.q)
        p = marbles.game_to_tableau(out.p.inner, marbles.tableau_to_game(out.p))
        q = marbles.game_to_tableau(out.q.inner, marbles.tableau_to_game(out.q))
        return out, back, p, q

    def check(self, op, out) -> None:
        t, u = op
        fwd, back, p, q = out
        if back.t != t or back.u != u:
            raise CheckFailed("crsk_inverse did not return (T, U)")
        if _weight(fwd.p) != _weight(t) or _weight(fwd.q) != _weight(u):
            raise CheckFailed("crsk did not preserve the weights")
        if p != fwd.p or q != fwd.q:
            raise CheckFailed("marble round trip changed P or Q")

    def canon(self, op, out) -> bytes:
        fwd = out[0]
        return _json([_tableau_doc(fwd.p), _tableau_doc(fwd.q)])


# ---------------------------------------------------------------------------
# words: cyclic Knuth transformations and connections, certificates replayed.


def _rearrangement(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two distinct arrangements of one word of length 10-14 over 3-4 letters."""
    length, letters = rng.randint(10, 14), rng.randint(3, 4)
    while True:
        w = tuple(rng.randint(1, letters) for _ in range(length))
        v = list(w)
        rng.shuffle(v)
        if tuple(v) != w:
            return w, tuple(v)


class Words(Workload):
    """A cycle of 400 transforms and 784 connects, of which 400 are new.

    Transforms run on 80 seeded permutations of each length 10-14.  Connects
    run on 64 hot pairs, six times each per cycle, and on 400 fresh pairs
    drawn anew for every cycle from the seed and the cycle's index.  Each
    connect looks up both of its words in the sorting-move cache: after the
    first cycle the hot lookups hit and the fresh ones miss, so about half
    of all lookups (768 of 1568 a cycle) repeat, and the cache grows by 800
    words a cycle.  A run is a fixed number of cycles, so the cache's final
    size and the peak memory depend only on --seconds.
    """

    name = "words"
    LENGTHS = (10, 11, 12, 13, 14)
    PER_LENGTH, HOT, HOT_REPEATS, FRESH = 80, 64, 6, 400
    CYCLE_S = 1.7  # about one cycle's time at the seed state, for run_ops

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.seed = seed
        transforms = []
        for length in self.LENGTHS:
            for _ in range(self.PER_LENGTH):
                perm = list(range(1, length + 1))
                self.rng.shuffle(perm)
                transforms.append(("transform", tuple(perm)))
        hot = [("connect",) + _rearrangement(self.rng) for _ in range(self.HOT)]
        self.pool = transforms + hot * self.HOT_REPEATS

    @property
    def cycle(self) -> int:
        return len(self.pool) + self.FRESH

    @property
    def prefix(self) -> int:
        return 2 * self.cycle  # the second cycle shows the warm cache

    def run_ops(self, seconds: float) -> int:
        return self.cycle * max(2, round(seconds / self.CYCLE_S))

    def stream(self):
        for index in itertools.count():
            rng = random.Random(f"words:{self.seed}:cycle{index}")
            order = self.pool + [("connect",) + _rearrangement(rng) for _ in range(self.FRESH)]
            self.rng.shuffle(order)
            yield from order

    def classes(self) -> dict[str, int]:
        return {
            "transform": len(self.LENGTHS) * self.PER_LENGTH,
            "connect-hot": self.HOT * self.HOT_REPEATS,
            "connect-fresh": self.FRESH,
        }

    def run(self, op):
        if op[0] == "transform":
            cert = words.word_transform(op[1]).certificate
        else:
            cert = words.connect(op[1], op[2])
        return cert, cert.replay()

    def check(self, op, out) -> None:
        cert, end = out
        target = tuple(sorted(op[1])) if op[0] == "transform" else op[2]
        if cert.start != op[1] or cert.end != target or end != target:
            raise CheckFailed(f"{op}: certificate replay ends at {end}")

    def canon(self, op, out) -> bytes:
        cert = out[0]
        return _json([[m.kind, m.pos] for m in cert.moves])


# ---------------------------------------------------------------------------
# cli: one `cyltab` process per operation, JSON in and canonical JSON out.


def _csv(values) -> str:
    return ",".join(map(str, values))


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    """cyltab.cli.main in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Cli(Workload):
    """Two of each subcommand per cycle, plus one of each `verify` identity.

    Set-up writes the JSON inputs under the work directory and records the
    expected stdout of each command from an in-process `cyltab.cli.main`.
    """

    name = "cli"
    PER_COMMAND = 2
    child_processes = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._count = 0
        self._classes: dict[str, int] = Counter()
        self.pool = []
        for _ in range(self.PER_COMMAND):
            self._add_tableau_commands()
            self._add_word_commands()
        self._add_verify_commands()

    def classes(self) -> dict[str, int]:
        return dict(self._classes)

    def _file(self, doc) -> str:
        self._count += 1
        path = self.workdir / f"in{self._count}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _add(self, cls: str, argv: list[str]) -> None:
        code, stdout, stderr = _run_main(argv)
        if code != 0 or stderr:
            raise CheckFailed(f"set-up command {argv} exited {code}: {stderr}")
        self._classes[cls] += 1
        self.pool.append((tuple(argv), stdout))

    def _add_tableau_commands(self) -> None:
        ser = serialization
        t, u = random_pair(self.rng, 3, (4, 6))
        fwd = crsk.crsk(t, u)
        first = min(u.entries())
        last = max(fwd.q.entries())
        t_file = self._file(ser.serialize_tableau(t))
        u_file = self._file(ser.serialize_tableau(u))
        p_file = self._file(ser.serialize_tableau(fwd.p))
        q_file = self._file(ser.serialize_tableau(fwd.q))
        strip_in = self._file(ser.serialize_boxes(b for b in u.boxes() if u.entry(b) == first))
        strip_out = self._file(ser.serialize_boxes(b for b in fwd.q.boxes() if fwd.q.entry(b) == last))
        game = marbles.tableau_to_game(t)
        mu_file = self._file(ser.serialize_partition(t.inner))
        game_file = self._file(ser.serialize_game(game))
        self._add("validate", ["validate", t_file])
        self._add("insert", ["insert", "--tableau", t_file, "--boxes", strip_in, "--trace"])
        self._add("reverse", ["reverse", "--tableau", p_file, "--boxes", strip_out])
        self._add("crsk", ["crsk", "--t", t_file, "--u", u_file])
        self._add("crsk-inv", ["crsk-inv", "--p", p_file, "--q", q_file])
        self._add("marble-encode", ["marble", "encode", "--tableau", t_file, "--letters", str(len(game.turns) + 1)])
        self._add("marble-decode", ["marble", "decode", "--mu", mu_file, "--game", game_file])

    def _add_word_commands(self) -> None:
        perm = list(range(1, self.rng.randint(10, 14) + 1))
        self.rng.shuffle(perm)
        w, v = _rearrangement(self.rng)
        self._add("knuth-transform", ["knuth", "transform", _csv(perm)])
        self._add("knuth-connect", ["knuth", "connect", _csv(w), _csv(v), "--replay"])

    def _add_verify_commands(self) -> None:
        rng = self.rng
        k, n = rng.choice(((2, 4), (2, 5), (3, 5)))
        a, b = rng.choice(_close_pairs(k, n))
        shape = ["--k", str(k), "--n", str(n), "--alpha", _csv(a)]
        self._add("verify", ["verify", "cauchy", *shape, "--beta", _csv(b), "--degree", "3"])
        self._add("verify", ["verify", "oneschur", *shape, "--degree", "3", "--vars", "2"])
        self._add("verify", ["verify", "fcount", *shape, "--beta", _csv(b), "--m", str(rng.randint(3, 5))])
        ra, rb = rng.choice([(x, y) for x in _REGULAR for y in _REGULAR if max(_excess(x, y), _excess(y, x)) < 2])
        self._add(
            "verify",
            ["verify", "skew", "--alpha", _csv(ra), "--beta", _csv(rb), "--degree", "2", "--cross-check"],
        )

    def reference(self) -> None:
        """A bare interpreter start: the cost every cyltab command pays first.

        It follows the machine's speed for these commands more closely than
        the in-process loop does.  Traced runs call main in this process, so
        they time the in-process loop.
        """
        if self.inprocess:
            return super().reference()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)

    def run(self, op):
        argv, _ = op
        if self.inprocess:
            return _run_main(list(argv))
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, out) -> None:
        argv, expected = op
        code, stdout, stderr = out
        if code != 0 or stderr or stdout != expected:
            raise CheckFailed(f"cyltab {' '.join(argv)}: exit {code}, stderr {stderr[:200]!r}")

    def canon(self, op, out) -> bytes:
        return out[1].encode()


WORKLOADS = {w.name: w for w in (Identity, Bijection, Words, Cli)}

