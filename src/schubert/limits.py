"""Size caps for the operations with exponential worst cases.

`CAPS` is the one table of caps: it maps each guarded operation to the
largest n it accepts, and the comment on each entry says what n counts
there (the size of w, the side of the n x n grid, the rank of a group or
the letters of a word) and why the cap sits where it does.  The
environment variable SCHUBERT_MAX_N, an optional sign and ASCII digits,
raises every cap below it and lowers none, so big one-off runs need no
code changes.  It is read at each guard, so a value set while the process
runs takes effect at the next call.
"""

from __future__ import annotations

import os
import re

ENV_VAR = "SCHUBERT_MAX_N"

CAPS: dict[str, int] = {
    # n = len(w); seeded random w took 3.3 s at n = 12 and 33 s at n = 13
    "schubert": 11,
    # n = len(w); the recursion from w0 took about 0.6 s per w of S7 (the
    # four families together), the one cost in Theorem A that grows past S6
    "double_schubert": 7,
    # n = len(w); the family from w0 took 3.8 s at n = 9 and 52 s at n = 10
    "grothendieck": 8,
    # n = len(w); as double_schubert
    "double_grothendieck": 7,
    # n = len(w); one essential box at (8, 8) of rank 3 in S16 gave 89,964
    # same-size minors, whose minimalization did not finish in 300 s
    "schubert_generators": 11,
    # n = the grid side; minimal vertex covers of a hypergraph on n^2 vertices
    "stanley_reisner_facets": 6,
    # n = the grid side; the pivot recursion branches on the n^2 variables
    "k_polynomial": 6,
    # n = the grid side; the same pivot recursion as k_polynomial
    "multidegree_of_ideal": 6,
    # n = len(w); K-polynomials of J_w in two gradings, against the families,
    # whose memos it reads unguarded, so it stays at or below their caps
    "theorem_a_check": 6,
    # n = len(w); mitosis down the weak order from RP(w0) = {D0}
    "rp_mitosis": 8,
    # n = len(w); exhaustive search over the l(w)-subsets of D0's n(n-1)/2 cells
    "rp_bruteforce": 7,
    # n = len(w); Buchberger's criterion on every pair of minors, desk scale;
    # verify_theorem_b's max_n raises it per call
    "verify_theorem_b": 5,
    # n = len(w); up to (max_entry + 1)^(n^2) exponent arrays
    "standard_arrays": 4,
    # n = len(w); lifted Demazure chains for every facet of the complex of J_w
    "mitosis_facet_bridge": 5,
    # n = the largest symmetric group swept; at n = 7 every per-call cap
    # passed, and brute-force RP(w) took about 1.8 s per w
    "check-all": 6,
    # n = the rank of the group, the larger of len(pi) and the largest letter
    # + 1; the word 99999999 built a 10^8-entry identity permutation
    "subword": 10,
    # n = the letters of the word subword_complex searches, exponential in
    # them: 60 letters took 26.3 s, and the subword verb printed 37.6 MB
    "subword word": 40,
}
# n = the dream's side; the verb mutates the dreams that RP(w) by mitosis is
# built from, and --render prints the n x n grid (11.2 s and 128 MB at n = 8000)
CAPS["mitosis"] = CAPS["rp_mitosis"]

INTEGER = re.compile(r"[+-]?[0-9]+")


class SizeGuardError(ValueError):
    """Raised when an input exceeds an operation's size cap, or when
    SCHUBERT_MAX_N is set to something other than an integer."""


class InvariantError(Exception):
    """Raised when a property the theory guarantees fails to hold.

    That is a defect in the library, not bad input, so it is deliberately
    not a ValueError.
    """


def size_guard(n: int, operation: str, cap: int | None = None) -> None:
    """Raise SizeGuardError if n exceeds the operation's cap: the largest of
    CAPS[operation], `cap` if given, and SCHUBERT_MAX_N if set."""
    cap = CAPS[operation] if cap is None else max(cap, CAPS[operation])
    env = os.environ.get(ENV_VAR)
    if env is not None:
        if not INTEGER.fullmatch(env):
            raise SizeGuardError(f"{ENV_VAR}={env!r} is not an integer")
        cap = max(cap, int(env))
    if n > cap:
        raise SizeGuardError(
            f"{operation}: n={n} exceeds cap {cap} (set {ENV_VAR} to override)"
        )
