"""The four benchmark workloads: seeded inputs, the library calls, output checks.

A workload is built one pass at a time.  build(name, lib, certs, rng) turns
a seeded random.Random into a list of jobs; every job is one library call
plus a check of its output.  A job's index in the list is its slot: slot i
has the same kind and size of input in every pass, so a seed changes which
inputs a pass holds but hardly what they cost.  The solve and construct
inputs are sizes only, and there the seed just orders a pass.  The checks
run outside the timed interval and lean on checks.py, which shares no code
with the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from checks import (cycle_adj, has_repetitive_stroll, has_square,
                    is_walk_nonrep_cycle, path_adj, vtm)

DECIDERS = {
    "path": "exists_repetitive_path",
    "stroll": "exists_repetitive_stroll",
    "walk": "exists_repetitive_nonboring_walk",
}

# Published values the solve and construct outputs must match.
# pi(C_n) = 4 exactly on these n (Currie, Electron. J. Combin. 9 (2002) #N10).
CURRIE_EXCEPTIONAL = frozenset({5, 7, 9, 10, 14, 17})
# rho(C_n) = 3 exactly on these n, 4 otherwise (the paper's cycle theorem).
STROLL_CYCLE_3 = frozenset({3, 4, 6, 8})

VTM_PATH_NS = range(16, 49, 2)
BASE_CYCLE_KS = range(8, 25)  # base cycles C_16..C_48 of sigma(3k)
# The frozen certificates (bench/certs.json, written by bench/freeze.py):
# sigma's walk colourings of C_n for n in SIGMA_NS, and one stroll colouring
# of P_RHO_PATH_N whose windows of RHO_WINDOW_NS lengths are drawn.
SIGMA_NS = range(22, 73)
RHO_PATH_N = 64
RHO_WINDOW_NS = range(22, 61, 2)  # at most RHO_PATH_N
PLANT_T = (2, 6)  # planted square half-lengths, inclusive
SOLVE_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


def _permute(word, rng):
    k = max(word)
    perm = rng.sample(range(1, k + 1), k)
    return tuple(perm[x - 1] for x in word)


def _turn(word, rng, circular: bool):
    """Rotate (cycles only) and maybe reverse: the same colouring up to symmetry."""
    if circular:
        r = rng.randrange(len(word))
        word = word[r:] + word[:r]
    return word[::-1] if rng.random() < 0.5 else word


def _window(word, n, rng):
    off = rng.randrange(len(word) - n + 1)
    return word[off:off + n]


def plant_square(word, t, p):
    """Copy the window of length t at p right after itself (indices wrap)."""
    n = len(word)
    out = list(word)
    for i in range(t):
        out[(p + t + i) % n] = out[(p + i) % n]
    return tuple(out)


def _digits(text):
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------- verify
#
# The verify slots are (family, kind, n, property); the words come from the
# seed.  Every accept input is valid by construction:
#   vtm-path   factors of the square-free ternary Thue-Morse word on P_n;
#   base-cycle circular square-free 3-colourings (sigma's base cycles);
#   sigma      walk-nonrepetitive 4-colourings of C_n, asked both for the
#              walk and the (weaker) stroll property;
#   rho-window windows of the frozen 4-colour stroll certificate of
#              P_RHO_PATH_N
#              (an induced subpath keeps the property).
# Rotation, reversal and colour permutation preserve all three properties.

def _verify_slots():
    slots = [("vtm-path", "path", n, "path") for n in VTM_PATH_NS]
    slots += [("base-cycle", "cycle", 2 * k, "path") for k in BASE_CYCLE_KS]
    slots += [("sigma", "cycle", n, prop)
              for n in SIGMA_NS for prop in ("walk", "stroll")]
    slots += [("rho-window", "path", n, "stroll") for n in RHO_WINDOW_NS]
    return slots


def _verify_word(family, n, certs, rng):
    if family == "vtm-path":
        return _permute(vtm(n, rng.randrange(10**6)), rng)
    if family == "base-cycle":
        word = _digits(certs["sigma"][str(3 * (n // 2))]["base"])
    elif family == "sigma":
        word = _digits(certs["sigma"][str(n)]["walk"])
    else:
        word = _window(_digits(certs["rho_path"]), n, rng)
    return _permute(_turn(word, rng, family != "rho-window"), rng)


def _graph(lib, kind, n):
    return lib.model.cycle_graph(n) if kind == "cycle" else lib.model.path_graph(n)


def _decide_job(lib, name, g, c, prop, check):
    decider = DECIDERS[prop]
    return Job(name, lambda: getattr(lib.decide, decider)(g, c), check)


def _accept_check(out):
    if out is not None:
        return f"valid input rejected with a {len(out.walk)}-vertex witness"
    return None


def _witness_check(lib, g, c, prop, t):
    """The witness must be a real violation of prop, no longer than 2t."""
    def check(out):
        if out is None:
            return f"planted square of length {2 * t} not found"
        if out.violated != prop:
            return f"witness is labelled {out.violated!r}, not {prop!r}"
        wc = lib.model.classify_walk(g, c, out.walk)
        kind_ok = {"path": wc.simple_path, "stroll": wc.stroll,
                   "walk": wc.even_length and not wc.boring}[prop]
        if wc.repetitive is not True or not kind_ok:
            return f"witness {out.walk.vertices} is not a repetitive {prop}"
        if len(out.walk) > 2 * t:
            return f"witness has {len(out.walk)} vertices, planted square {2 * t}"
        return None
    return check


def build_verify_accept(lib, certs, rng):
    jobs = []
    for family, kind, n, prop in _verify_slots():
        g = _graph(lib, kind, n)
        c = lib.model.Coloring.from_colors(_verify_word(family, n, certs, rng))
        jobs.append(_decide_job(lib, f"{family}:{kind}{n}:{prop}", g, c, prop,
                                _accept_check))
    return jobs


def build_verify_reject(lib, certs, rng):
    jobs = []
    for i, (family, kind, n, _) in enumerate(_verify_slots()):
        prop = ("path", "stroll", "walk")[i % 3]
        # The square's length and place decide how far the deciders search
        # before they find it, so both are fixed per slot; the words are drawn.
        t = PLANT_T[0] + (i // 3) % (PLANT_T[1] - PLANT_T[0] + 1)
        places = n if kind == "cycle" else n - 2 * t + 1
        p = places * (i * 37 % 100) // 100
        word = plant_square(_verify_word(family, n, certs, rng), t, p)
        g = _graph(lib, kind, n)
        c = lib.model.Coloring.from_colors(word, max(word))
        jobs.append(_decide_job(lib, f"{family}:{kind}{n}:{prop}:t{t}", g, c,
                                prop, _witness_check(lib, g, c, prop, t)))
    return jobs


# ---------------------------------------------------------------- solve

# Verdicts on colourings judged before, keyed by what was judged.  A job
# returns the same colouring pass after pass, so each distinct colouring is
# checked in full once per process instead of once per pass; a different
# colouring, a corrupted one included, is always judged afresh.
_VERDICTS = {}


def _memo(key, judge):
    if key not in _VERDICTS:
        _VERDICTS[key] = judge()
    return _VERDICTS[key]


def _certificate_ok(prop, kind, word) -> bool:
    """Independent re-check of a certificate (checks.py, not the library)."""
    return _memo(("certificate", prop, kind, tuple(word)),
                 lambda: _judge_certificate(prop, kind, word))


def _judge_certificate(prop, kind, word) -> bool:
    if prop == "path":
        return not has_square(word, circular=kind == "cycle")
    if prop == "stroll":
        adj = cycle_adj(len(word)) if kind == "cycle" else path_adj(len(word))
        return not has_repetitive_stroll(adj, word)
    if kind != "cycle":
        raise ValueError("walk certificates are only checked on cycles")
    return is_walk_nonrep_cycle(word)


def _solve_check(prop, kind, n, k_max, want):
    exhausted = list(range(1, k_max + 1 if want is None else want))

    def check(report):
        if report.aborted:
            return "node budget exhausted"
        if report.value != want:
            return f"value {report.value}, published {want}"
        if list(report.exhausted_k) != exhausted:
            return f"exhausted_k {report.exhausted_k}, expected {exhausted}"
        if want is None:
            return None
        cert = report.certificate
        if cert is None or cert.n != n or max(cert.colors) > want:
            return "certificate missing or of the wrong shape"
        if not _certificate_ok(prop, kind, cert.colors):
            return "certificate fails the independent check"
        return None
    return check


def _solve_specs():
    # (property, kind, n, k_max, published value or None if > k_max); the
    # seed only orders them, since every n here has its own cost.  Most of a
    # pass goes into exhausting the k below the answer under the stroll
    # prefix decider (rho of paths and cycles, rho(P22) and rho(P23) = 4
    # included); the path and walk jobs on cycles exhaust smaller k through
    # leaf final checks on the wrap-around segments, and the path jobs on
    # P_n end in one accepting final check.
    specs = [("walk", "cycle", n, 3, None) for n in range(4, 22)]
    specs += [("path", "cycle", n, 4, 4 if n in CURRIE_EXCEPTIONAL else 3)
              for n in range(3, 18)]
    specs += [("stroll", "cycle", n, 4, 3 if n in STROLL_CYCLE_3 else 4)
              for n in range(3, 16)]
    specs += [("stroll", "path", n, 4, 3 if n <= 21 else 4)
              for n in range(4, 24)]
    # pi(P_n) = 3 for n >= 4 (Thue)
    specs += [("path", "path", n, 3, 3) for n in range(10, 41)]
    # sigma(C_n) = 4 for n > 21: the paper's subdivision theorem, and three
    # colours would force the square 123123
    specs += [("walk", "cycle", n, 4, 4) for n in range(22, 35)]
    return specs


def build_solve(lib, certs, rng):
    jobs = []
    for prop, kind, n, k_max, want in _solve_specs():
        g = _graph(lib, kind, n)
        jobs.append(Job(
            f"solve:{prop}:{kind}{n}:k{k_max}",
            lambda g=g, prop=prop, k_max=k_max: lib.search.solve(
                g, prop, k_max, node_budget=SOLVE_NODE_BUDGET),
            _solve_check(prop, kind, n, k_max, want)))
    return jobs


# ---------------------------------------------------------------- construct

def _sigma_check(lib, n):
    def judge(c, base):
        if not lib.decide.is_walk_nonrepetitive_cycle_fast(lib.model.cycle_graph(n), c):
            return "is_walk_nonrepetitive_cycle_fast rejects the coloring"
        if not is_walk_nonrep_cycle(c.colors):
            return "coloring fails the independent walk check"
        if has_square(base, circular=True):
            return "base coloring is not circular square-free"
        return None

    def check(out):
        trace, c = out
        if c.n != n or c.colors_used() != 4 or trace.final_coloring != c:
            return "coloring of the wrong shape"
        base = trace.base_coloring.colors
        return _memo(("sigma", c.colors, base), lambda: judge(c, base))
    return check


def _rho_check(kind, n, want):
    def check(out):
        value, c = out
        if value != want or c.n != n or c.colors_used() != want:
            return f"value {value} with {c.colors_used()} colours, published {want}"
        if not _certificate_ok("stroll", kind, c.colors):
            return "certificate fails the independent stroll check"
        return None
    return check


def build_construct(lib, certs, rng):
    # Every n of these ranges runs in every pass; the seed only orders them.
    # Drawing n afresh each pass would make a slot's median depend on the
    # draws, and job_p50_ms move by up to 10% between seeds.  The ranges
    # keep a pass near 2 s, so a run has about eight passes to take medians
    # over; larger n cost 0.1 s and more each (sigma at n = 88..90: about
    # 10 s).
    con = lib.construct
    jobs = [Job(f"sigma:C{n}", lambda n=n: con.sigma_cycle_coloring(n),
                _sigma_check(lib, n)) for n in range(22, 61)]
    for n in range(3, 55):
        want = 3 if n in STROLL_CYCLE_3 else 4
        jobs.append(Job(f"rho:C{n}", lambda n=n: con.rho_cycle_coloring(n),
                        _rho_check("cycle", n, want)))
    # rho_path(n) for n >= 22 searches P_n itself
    for n in range(3, 31):
        want = 2 if n == 3 else 3 if n <= 21 else 4
        jobs.append(Job(f"rho:P{n}", lambda n=n: con.rho_path_coloring(n),
                        _rho_check("path", n, want)))
    return jobs


# Why each workload exists (also listed in BENCHMARK.json).
WORKLOADS = {
    # Valid inputs: every decider must exhaust its whole state space, so
    # decide does all the work and search/construct do none.
    "verify-accept": build_verify_accept,
    # The same slots with a planted square: the cost of explaining a failure
    # (shortest witness, then lexicographically least, then classify_walk),
    # including stroll and walk rejections on 3-colour words.
    "verify-reject": build_verify_reject,
    # Exact chromatic values: most time goes into exhausting the k below the
    # answer, mainly under the stroll prefix decider; leaf final checks are
    # the smaller part.
    "solve": build_solve,
    # The only workload that runs construct: find-first search on cycles
    # whose leaves fail the final check on wrap-around segments.
    "construct": build_construct,
}


def build(name, lib, certs, rng):
    return WORKLOADS[name](lib, certs, rng)
