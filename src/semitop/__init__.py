"""Exact-arithmetic toolkit for convolution algebras over discrete
semigroups: finitely supported vectors, the dyadic interval model,
weight-induced neighborhood bases, double-limit tests, and the partial-map
obstruction calculus, all behind re-validatable verdict objects."""

from .dyadic import (DyadicPoint, XSpace, basic_neighborhood,
                     interval_identity_sweep, psi, verify_interval_identity)
from .l1 import (BoundedFunction, L1Vector, convolve, max_action_formula,
                 pairing, pairing_vectors)
from .obstructions import (build_g, enumerate_partial_maps,
                           open_set_identity_sweep, proof_skeleton, valid_ns,
                           verify_annihilation, verify_fnp)
from .semigroups import (INF, CyclicGroup, FreeWords, IntegerGroup,
                         NatInfinity, NatMax, NatMul, PartialMap, PartialMaps,
                         ReesMatrix, SemigroupInstance, ZPlusK, ZPlusTimesZ,
                         associativity_window, is_cancellative_window,
                         is_finitely_left_divisible_window,
                         is_weakly_cancellative_window, length)
from .jsonio import SuiteError
from .suites import SUITES, run_suite
from .topologies import (BasicNbhd, ConvergenceCertificate, DiscreteTopology,
                         OnePointTopology, TopologyInstance, WeightSequence,
                         base_property_check, check_convergence,
                         convergence_transfer, distinguish_topologies,
                         find_limit, good_corr_check, hausdorff_exhaustive,
                         mask_family, natural_to_odd_pair, odd_pair_to_natural,
                         separate_continuity_identity, verify_star,
                         verify_star_star)
from .verdicts import (Verdict, failed, not_applicable, passed,
                       undetermined)
from .wap import (LimitFunctional, SharpnessWitness, arens_box, arens_diamond,
                  counterexample_x, eval_limit, indicator_of_evens,
                  subsequence_pair_family, telescoping_check, wap_test)

__version__ = "0.1.0"
