"""Seeded inputs and independent answer checks for the four workloads.

Nothing here imports goeritz: the inputs are generated and the answers
judged by code of the benchmark's own, so a defect in the package under
test cannot hide itself by agreeing with its own reference.

A workload is a *pass*: a fixed list of subjects. The composition of a
pass (how many subjects of each kind, and in which size bands) is the
same for every seed; the seed picks the concrete words and pairs inside
each band, so passes from different seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("verify-long", "sweep-short", "report-large", "catalog")

# Why each workload exists, and why some ignore the seed.
WHY = {
    "verify-long": "CLI calls on seeded inputs: the Whitehead oracle on long words, "
    "sequence --verify, witness and report for 40 <= p <= 160, two small sweeps",
    "sweep-short": "thousands of tiny words: enumeration, least_rotation and the oracle "
    "on short words; exhaustive, so the seed is unused",
    "report-large": "Theta(p^2) report JSON for large p: Word construction, shells, "
    "rendering and peak memory; the oracle never runs",
    "catalog": "every coprime (p,q) up to a bound through the library: sub-millisecond "
    "presentations, SNF and classify; exhaustive, so the seed is unused",
}
SEEDED = {"verify-long": True, "sweep-short": False, "report-large": True, "catalog": False}

# --- free-group arithmetic of the benchmark's own (codes: x=1, y=2, inverse = negative)

_LETTER = {1: "x", -1: "X", 2: "y", -2: "Y"}


def free_reduce(codes) -> list[int]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def cyclic_reduce(codes: list[int]) -> list[int]:
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == -codes[j - 1]:
        i += 1
        j -= 1
    return codes[i:j]


def caret(codes) -> str:
    """Caret notation accepted by the goeritz CLI, e.g. xY^3x."""
    parts = []
    i, n = 0, len(codes)
    while i < n:
        j = i
        while j < n and codes[j] == codes[i]:
            j += 1
        sym = _LETTER[codes[i]]
        parts.append(sym if j - i == 1 else f"{sym}^{j - i}")
        i = j
    return "".join(parts)


def _random_automorphism(rng: random.Random) -> dict[int, tuple[int, ...]]:
    """Images of x and y under a random Whitehead automorphism.

    Type II: fix a multiplier letter a and send the other generator b to
    b*a, a^-1*b or a^-1*b*a. Now and then a signed permutation (type I)
    is composed in, so both generators end up mixed.
    """
    a = rng.choice((1, -1, 2, -2))
    b = 2 if abs(a) == 1 else 1
    img_b = rng.choice(((b, a), (-a, b), (-a, b, a)))
    images = {abs(a): (abs(a),), b: img_b}
    if rng.random() < 0.25:
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        if rng.random() < 0.5:
            images = {1: images[2], 2: images[1]}
        images = {1: tuple(sx * c for c in images[1]), 2: tuple(sy * c for c in images[2])}
    inv = lambda img: tuple(-c for c in reversed(img))
    return {1: images[1], -1: inv(images[1]), 2: images[2], -2: inv(images[2])}


def automorphic_image(base: tuple[int, ...], lo: int, hi: int, rng: random.Random) -> list[int]:
    """A cyclically reduced image of `base` with cyclic length in [lo, hi].

    The word is cyclically reduced after every automorphism: a word can
    grow without bound while its cyclic length stays small, and only the
    cyclic length says how much work the oracle has. Moves that do not
    lengthen the word, or overshoot `hi`, are redrawn.
    """
    codes = list(base)
    while len(codes) < lo:
        for _ in range(50):
            table = _random_automorphism(rng)
            image = cyclic_reduce(free_reduce(c2 for c in codes for c2 in table[c]))
            if len(codes) < len(image) <= hi:
                codes = image
                break
        else:
            codes = list(base)
    return codes


# --- input generation

# x^2, x^2y^3 and x^3y^4 are not primitive: a cyclically reduced positive
# primitive word has all runs of one generator of length 1. The commutator
# xyXY is not among them: every automorphism maps it to a conjugate of
# xyXY or its inverse, so its cyclic length stays 4.
_NONPRIMITIVE_BASES = ((1, 1), (1, 1, 2, 2, 2), (1, 1, 1, 2, 2, 2, 2))


def _bands(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """k adjacent integer bands covering [lo, hi]."""
    edges = [lo + round(i * (hi - lo + 1) / k) for i in range(k + 1)]
    return [(edges[i], edges[i + 1] - 1) for i in range(k)]


def connected(p: int, q: int) -> bool:
    """The primitive disk complex of L(p,q) is connected iff p = +-1 mod q."""
    q = min(q, p - q)
    return q == 1 or p % q in (1, q - 1)


def _pair_in_band(lo: int, hi: int, want_connected: bool, rng: random.Random) -> tuple[int, int]:
    while True:
        p = rng.randint(lo, hi)
        qs = [q for q in range(1, p // 2 + 1) if math.gcd(p, q) == 1 and connected(p, q) == want_connected]
        if qs:
            return p, rng.choice(qs)


def witness_letters(p: int, q: int) -> int:
    """Letters in all words of the replacement trace of a disconnected L(p,q)."""
    return sum(word_length(label, min(q, p - q)) for label in witness_labels(p, q))


def _disconnected_pair(lo: int, hi: int, cost, cost_lo: float, cost_hi: float,
                       rng: random.Random) -> tuple[int, int]:
    """A disconnected pair with lo <= p <= hi and cost_lo <= cost(p, q) < cost_hi,
    or the one whose cost is nearest to that band if none is inside."""
    pairs = [(p, q) for p in range(lo, hi + 1) for q in range(1, p // 2 + 1)
             if math.gcd(p, q) == 1 and not connected(p, q)]
    costs = {pq: cost(*pq) for pq in pairs}
    inside = [pq for pq in pairs if cost_lo <= costs[pq] < cost_hi]
    if inside:
        return rng.choice(inside)
    mid = math.sqrt(cost_lo * cost_hi)
    return min(pairs, key=lambda pq: abs(math.log(costs[pq] / mid)))


def witness_oracle_work(p: int, q: int) -> int:
    """The `witness` verb runs the oracle on every disk of the trace. Its
    work grows as the trace's letters times q, to within about 12 %
    (log standard deviation, measured over random pairs with p <= 160),
    while across pairs of similar p it spans three orders of magnitude."""
    return witness_letters(p, q) * min(q, p - q)


def gen_verify_long(rng: random.Random) -> list[dict]:
    subjects = []
    words = []
    for i, (lo, hi) in enumerate(_bands(200, 800, 12)):
        words.append({"word": automorphic_image((1,), lo, hi, rng), "primitive": True})
        base = _NONPRIMITIVE_BASES[i % 3]
        words.append({"word": automorphic_image(base, lo, hi, rng), "primitive": False})
    # The oracle's work on these grows with n, so n stays within 5 of a
    # grid point over 100..300 and every seed costs about the same.
    for grid in (125, 175, 225, 275):
        n = grid + rng.randint(-5, 5)
        words.append({"word": [1] + [2] * n + [1] + [2] * (n + 1), "primitive": True})
        n = grid + rng.randint(-5, 5)
        words.append({"word": [1] + [-2] * n + [1] + [-2] * (n + 2), "primitive": False})
    for w in words:
        text = caret(w["word"])
        subjects.append({"kind": "primitive", "argv": ["primitive", text, "--json"],
                         "primitive": w["primitive"]})
        subjects.append({"kind": "primitive", "argv": ["primitive", "--method", "whitehead", text, "--json"],
                         "primitive": w["primitive"]})
    # Twenty p bands; four pairs are connected, so `witness` must refuse them.
    # The sixteen disconnected ones take bands of oracle work growing with p,
    # so passes from different seeds cost about the same.
    work_edges = [5000 * 24 ** (k / 16) for k in range(17)]
    disconnected = 0
    for i, (lo, hi) in enumerate(_bands(40, 160, 20)):
        if i % 5 == 2:
            p, q = _pair_in_band(lo, hi, True, rng)
        else:
            p, q = _disconnected_pair(lo, hi, witness_oracle_work, work_edges[disconnected],
                                      work_edges[disconnected + 1], rng)
            disconnected += 1
        for verb in (["sequence", str(p), str(q), "--verify", "--json"],
                     ["witness", str(p), str(q), "--json"],
                     ["report", str(p), str(q), "--json"]):
            subjects.append({"kind": verb[0], "argv": verb, "p": p, "q": q})
    # Two reports near p = 300, so that Theta(p^2) report memory sets this
    # workload's peak_rss_mb.
    for want_connected in (True, False):
        pair = _report_pair(MID_REPORT_P - 4, MID_REPORT_P + 4, MID_REPORT_P, want_connected, rng)
        subjects.append(_report_subject(*pair))
    # small sweeps, so that the enumerators are measured here too
    for check, bound in VERIFY_SWEEPS:
        subjects.append({"kind": "sweep", "argv": ["sweep", check, "--max-p", str(bound), "--json"],
                         "check": check, "bound": bound})
    rng.shuffle(subjects)
    return subjects


MID_REPORT_P = 300
VERIFY_SWEEPS = (("oz-vs-whitehead", 10), ("filter-soundness", 8))
SWEEP_SHORT = (("oz-vs-whitehead", 14), ("filter-soundness", 11))


def _sweep_subject(check: str, bound: int) -> dict:
    """A sweep call counted as the words it checks (its `weight`)."""
    return {"kind": "sweep", "argv": ["sweep", check, "--max-p", str(bound), "--json"],
            "check": check, "bound": bound, "weight": sweep_subjects(check, bound)}


def gen_sweep_short(rng: random.Random) -> list[dict]:
    return [_sweep_subject(check, bound) for check, bound in SWEEP_SHORT]


REPORT_PAIRS = 6


def _report_pair(lo: int, hi: int, grid: int, want_connected: bool,
                 rng: random.Random) -> tuple[int, int]:
    """A pair with lo <= p <= hi, a band around `grid`. A report costs Theta(p^2) and its
    largest p sets the peak memory, so p stays near its grid point; the
    seed picks q. A disconnected report also carries the witness trace,
    whose words total anywhere from 10^-2 to 2 times p^2 letters over q,
    so its q is drawn from the pairs whose trace totals p^2/20 to p^2/5
    letters."""
    if want_connected:
        return _pair_in_band(lo, hi, True, rng)
    return _disconnected_pair(lo, hi, witness_letters, grid * grid / 20, grid * grid / 5, rng)


def _report_subject(p: int, q: int) -> dict:
    return {"kind": "report", "argv": ["report", str(p), str(q), "--json"], "p": p, "q": q}


def gen_report_large(rng: random.Random) -> list[dict]:
    """p on a grid over 300..700 (jittered by at most 4), alternately
    connected and not."""
    subjects = []
    for i in range(REPORT_PAIRS):
        grid = 300 + round(i * 400 / (REPORT_PAIRS - 1))
        lo, hi = max(300, grid - 4), min(700, grid + 4)
        subjects.append(_report_subject(*_report_pair(lo, hi, grid, i % 2 == 0, rng)))
    rng.shuffle(subjects)
    return subjects


CATALOG_MAX_P = 400


class CatalogPairs:
    """Every coprime (p, q) with 2 <= p <= CATALOG_MAX_P and q <= p/2, as
    subjects made on the fly, so the worker holds no list of them."""

    def __iter__(self):
        for p in range(2, CATALOG_MAX_P + 1):
            for q in range(1, p // 2 + 1):
                if math.gcd(p, q) == 1:
                    yield {"kind": "catalog", "p": p, "q": q}


def gen_catalog(rng: random.Random) -> CatalogPairs:
    return CatalogPairs()


_GENERATORS = {
    "verify-long": gen_verify_long,
    "sweep-short": gen_sweep_short,
    "report-large": gen_report_large,
    "catalog": gen_catalog,
}

def subject_source(workload: str, seed: int):
    """The subjects of one pass, in order: a list, or for `catalog` an
    iterable that makes them on the fly. The same seed always
    gives the same subjects, so the worker and run.py each make their own."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def generate(workload: str, seed: int) -> list[dict]:
    return list(subject_source(workload, seed))


def digest(subjects: list[dict]) -> str:
    text = json.dumps(subjects, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- reference answers

def q_prime(p: int, q: int) -> int:
    """q' in [1, p/2] with q*q' = +-1 mod p."""
    x = pow(q, -1, p)
    return min(x, p - x)


def replacement_end(p: int, q: int) -> tuple[int, int]:
    """(s, t+1) with s*r - (t+1)*q = 1 and s minimal positive, r = p mod q."""
    q = min(q, p - q)
    r = p % q
    s = pow(r, -1, q)
    return s, (s * r - 1) // q


def _continued_fraction(num: int, den: int) -> list[int]:
    quotients = []
    while den:
        quotients.append(num // den)
        num, den = den, num % den
    if len(quotients) > 1 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    return quotients


def witness_labels(p: int, q: int) -> list[tuple[int, int, int, int]]:
    """Labels (a, b, d, e) of the replacement trace of a disconnected L(p,q).

    Seeds 1/0 with (d, e) = (m-1, q+r) and 0/1 with (0, 0); each step takes
    the mediant of the current pair with d = d1+d2+1 and e = e1+e2-q, in
    blocks of R then L replacements sized by the continued fraction of
    s/(t+1). The disk with label (d, e) has word (xy^q)^d x y^e.
    """
    q = min(q, p - q)
    r, m = p % q, p // q
    pair = ((1, 0, m - 1, q + r), (0, 1, 0, 0))
    labels = list(pair)
    for block, size in enumerate(_continued_fraction(*replacement_end(p, q))):
        for _ in range(size):
            (a1, b1, d1, e1), (a2, b2, d2, e2) = pair
            new = (a1 + a2, b1 + b2, d1 + d2 + 1, e1 + e2 - q)
            labels.append(new)
            pair = (pair[0], new) if block % 2 == 0 else (new, pair[1])
    return labels


def word_length(label: tuple[int, int, int, int], q: int) -> int:
    return label[2] * (q + 1) + 1 + label[3]


def necklace_count(max_len: int) -> int:
    """Binary necklaces of length 1..max_len: N(n) = sum over d | n of the
    Lyndon counts L(d) = (1/d) sum over e | d of mu(e) 2^(d/e)."""

    def mobius(n: int) -> int:
        result, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                result = -result
            k += 1
        return -result if n > 1 else result

    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    lyndon = lambda d: sum(mobius(e) * 2 ** (d // e) for e in divisors(d)) // d
    return sum(lyndon(d) for n in range(1, max_len + 1) for d in divisors(n))


def cyclically_reduced_count(max_len: int) -> int:
    """Cyclically reduced words of length 1..max_len in F(x, y): 3^n + 2 + (-1)^n each."""
    return sum(3 ** n + 2 + (-1) ** n for n in range(1, max_len + 1))


def enumerated_candidates(check: str, bound: int) -> int:
    """Words a sweep's enumerator builds before its canonical-rotation test."""
    if check == "oz-vs-whitehead":
        return 2 ** (bound + 1) - 2
    return cyclically_reduced_count(bound)


# Recorded at the commit that introduced the benchmark: `sweep filter-soundness
# --max-p N` checks this many cores. No closed form is known to us for the
# count of cores up to rotation, inversion and the y sign flip.
FILTER_SOUNDNESS_SUBJECTS = {8: 385, 11: 6574}


def sweep_subjects(check: str, bound: int) -> int:
    if check == "oz-vs-whitehead":
        return necklace_count(bound)
    return FILTER_SOUNDNESS_SUBJECTS[bound]


# A tiny subject run once, untimed, before the timed passes, so lazy
# imports and first-call set-up inside the package do not land in a pass.
WARMUP = {
    "verify-long": [{"kind": "primitive", "argv": ["primitive", "xyxy^2", "--json"], "primitive": True},
                    {"kind": "sequence", "argv": ["sequence", "12", "5", "--verify", "--json"], "p": 12, "q": 5},
                    {"kind": "witness", "argv": ["witness", "12", "5", "--json"], "p": 12, "q": 5}],
    "sweep-short": [_sweep_subject("oz-vs-whitehead", 6)],
    "report-large": [{"kind": "report", "argv": ["report", "12", "5", "--json"], "p": 12, "q": 5},
                     {"kind": "report", "argv": ["report", "13", "3", "--json"], "p": 13, "q": 3}],
    "catalog": [{"kind": "catalog", "p": p, "q": q} for p in range(2, 30)
                for q in range(1, p // 2 + 1) if math.gcd(p, q) == 1],
}


def load_catalog_expected() -> dict[tuple[int, int], str]:
    data = json.loads((EXPECTED_DIR / "catalog_abelianizations.json").read_text())
    return {tuple(map(int, pq.split(","))): ab for ab, pairs in data["groups"].items() for pq in pairs}


class Checker:
    """Judges each subject's answer. `wrong` feeds every check a
    deliberately wrong expected answer, to show the checks are live."""

    def __init__(self, workload: str, wrong: bool = False):
        self.workload = workload
        self.wrong = wrong
        self._abelianizations = load_catalog_expected() if workload == "catalog" else None

    def check(self, subject: dict, result: dict, output: str | None) -> str | None:
        """None when the answer is right, else a one-line reason."""
        if result.get("timeout"):
            return "timed out"
        if result.get("exited"):
            return "worker exited"
        if result.get("error"):
            return f"raised {result['error']}"
        try:
            return getattr(self, "_" + subject["kind"])(subject, result, output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable answer: {exc!r}"

    def _flip(self, value: bool) -> bool:
        return value != self.wrong

    def _primitive(self, s, r, out):
        truth = self._flip(s["primitive"])
        want_rc = 0 if truth else 1
        if r["rc"] != want_rc:
            return f"exit {r['rc']}, expected {want_rc}"
        if json.loads(out)["primitive"] is not truth:
            return f"verdict is not {truth}"
        return None

    def _sequence(self, s, r, out):
        p, q = s["p"], s["q"]
        if r["rc"] != 0:
            return f"exit {r['rc']}"
        data = json.loads(out)
        qp = q_prime(p, q)
        want = {1, qp, p - qp, p - 1}
        if self.wrong:
            want ^= {2}
        got = {row["j"] for row in data["rows"] if row["oracle_primitive"]}
        if got != want:
            return f"oracle-primitive indices {sorted(got)}, expected {sorted(want)}"
        for row in data["rows"]:
            if row["word"].count("z") != row["j"] or len(row["word"]) != p:
                return f"word {row['j']} has the wrong letter counts"
        return None

    def _witness(self, s, r, out):
        p, q = s["p"], s["q"]
        if self._flip(connected(p, q)):
            return None if r["rc"] == 2 else f"exit {r['rc']}, expected the refusal exit 2"
        if r["rc"] != 0:
            return f"exit {r['rc']}"
        disks = json.loads(out)["witness"]["disks"]
        s_, t1 = replacement_end(p, q)
        if disks[-1]["fraction"] != f"{s_}/{t1}":
            return f"ends at {disks[-1]['fraction']}, expected {s_}/{t1}"
        want = [(f"{a}/{b}", d, e) for a, b, d, e in witness_labels(p, q)]
        if [(d["fraction"], d["d"], d["e"]) for d in disks] != want:
            return "trace labels differ from the replacement recursion"
        first_replacement = next(d for d in disks if d["tag"] in ("L", "R"))
        if not disks[-1]["primitive"] or disks[0]["primitive"] or first_replacement["primitive"]:
            return "wrong primitivity along the trace"
        return None

    def _sweep(self, s, r, out):
        if r["rc"] != 0:
            return f"exit {r['rc']}"
        data = json.loads(out)
        want = sweep_subjects(s["check"], s["bound"]) + self.wrong
        if data["failures"]:
            return f"{len(data['failures'])} sweep failures"
        if data["subjects"] != want:
            return f"{data['subjects']} subjects, expected {want}"
        return None

    def _report(self, s, r, out):
        p, q = s["p"], s["q"]
        if r["rc"] != 0:
            return f"exit {r['rc']}"
        data = json.loads(out)
        if data["params"]["connected"] is not self._flip(connected(p, q)):
            return "wrong connectivity"
        words = data["sequence"]["words"]
        if len(words) != p + 1:
            return f"{len(words)} sequence words, expected {p + 1}"
        for j, w in enumerate(words):
            if w.count("z") != j or w.count("y") != p - j:
                return f"word {j} has the wrong letter counts"
        if (data["witness"] is None) != connected(p, q):
            return "witness present exactly when disconnected is violated"
        return None

    def _catalog(self, s, r, out):
        p, q = s["p"], s["q"]
        want_conn = self._flip(connected(p, q))
        if r["connected"] is not want_conn:
            return "wrong connectivity"
        if not want_conn:
            return None if r["refused"] else "presentation of a disconnected pair was not refused"
        if r["refused"]:
            return "presentation refused for a connected pair"
        want = self._abelianizations[(p, q)]
        if r["abelianization"] != want:
            return f"abelianization {r['abelianization']}, expected {want}"
        return None
