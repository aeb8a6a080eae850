"""Ten-fold-way K-theory of involutive function algebras.

Unitaries over sampled base spaces with involution, checked against the
ten symmetry classes; complete integer invariants per cataloged
(class, space) pair; the eight index maps for short exact sequences of
function algebras, plus an exact model of the shift algebra.
"""

from .matcore import (
    involute,
    involution_matrix,
    conjugator_w,
    conjugator_q,
    conjugator_v,
    conjugator_x,
    herm_eig,
    psd_sqrt,
    neg_exp_pi_i,
    pfaffian,
)
from .basespace import (
    BaseSpace,
    FnElement,
    Algebra,
    SESDescriptor,
    sample_space,
    apply_full_involution,
    lambda_eval,
    restrict,
    extend_contraction,
    ses_registry,
)
from .symclass import (
    CLASS_IDS,
    class_spec,
    neutral,
    check_membership,
    classify,
    add,
    inverse,
    stabilize,
    forget_to_ku,
    build_u,
    check_qc_relations,
    KOClassRep,
    MembershipError,
)
from .basespace import constant_element, with_pinned
from .invariants import signature, InvariantSignature
from .boundary import boundary_map, index_unitary, exp_unitary, boundary_conjugator
from . import toeplitz, catalog, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
