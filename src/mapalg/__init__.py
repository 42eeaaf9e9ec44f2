"""Exact symbolic engine for integral forms of enveloping algebras of map
algebras, with an instance-verification harness for its straightening and
integrality identities."""

from .combinatorics import (
    ALabel,
    Multiset,
    binom_int,
    multinomial,
    partitions,
    sub_multisets,
    subpartitions,
)
from .forms import (
    BasisIndex,
    ReductionResult,
    basis_element,
    cartan_at_root,
    cartan_pair,
    cartan_pair_at_root,
    cartan_single,
    dressed_block,
    enumerate_basis,
    reduce_to_basis,
    root_block,
    root_block_expanded,
    root_monomial,
)
from .identities import (
    PROFILES,
    CheckReport,
    CheckSpec,
    check_names,
    make_spec,
    run_check,
    run_suite,
)
from .pbw import (
    Element,
    Gen,
    LiePreset,
    Mono,
    ad_divided,
    divided_power,
    make_preset,
    omega,
)

__version__ = "0.1.0"

__all__ = [
    "ALabel",
    "BasisIndex",
    "CheckReport",
    "CheckSpec",
    "Element",
    "Gen",
    "LiePreset",
    "Mono",
    "Multiset",
    "PROFILES",
    "ReductionResult",
    "ad_divided",
    "basis_element",
    "binom_int",
    "cartan_at_root",
    "cartan_pair",
    "cartan_pair_at_root",
    "cartan_single",
    "check_names",
    "divided_power",
    "dressed_block",
    "enumerate_basis",
    "make_preset",
    "make_spec",
    "multinomial",
    "omega",
    "partitions",
    "reduce_to_basis",
    "root_block",
    "root_block_expanded",
    "root_monomial",
    "run_check",
    "run_suite",
    "sub_multisets",
    "subpartitions",
]
