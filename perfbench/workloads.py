"""The four CLI workloads.  Why each exists is in perfbench/README.md.

Sizes are cut down from the defaults so that one run of --seconds holds
several repetitions of each workload; the code paths are the defaults'.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple
    seeded: bool = False      # True: the benchmark seed feeds the CLI --seed

    def argv(self, seed, rep):
        """CLI arguments of repetition rep of a run with the given seed."""
        if not self.seeded:
            return list(self.args)
        # each repetition gets its own input, so a run's median spans several
        return [*self.args, "--seed", str(rep_seed(seed, rep))]


def rep_seed(seed, rep):
    return seed * 1000 + rep


WORKLOADS = {w.name: w for w in (
    Workload("factorial-m3",
             "SVD-bound sweep of dense interior windows; submodules never run",
             ("factorial-family", "--m", "3", "--delta", "2.0",
              "--degrees", "6,8,10,12,14,16")),
    Workload("submodule-m3",
             "graded submodule path: dense frames, ambient invariance SVD, one window per p",
             ("submodule-probe", "--family", "drury-arveson", "--m", "3",
              "--gens", "z1^2-z2^2", "--p", "1,3", "--degrees", "6,8,10,12,14")),
    Workload("identity-check",
             "hundreds of tiny problems per repetition: per-call overhead in "
             "shift_operators, no SVD",
             ("identity-check", "--trials", "300"), seeded=True),
    Workload("quotient-ungraded-m3",
             "ungraded one-block submodule and quotient compression, sparse products of dense data",
             ("quotient-probe", "--m", "3", "--gens", "z1-z2*z3", "--p", "1,3",
              "--degrees", "6,8,10,12,14")),
)}
