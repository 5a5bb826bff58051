"""Exact toolkit for equigenerated monomial ideals.

Decides the polymatroidal property via the exchange property, verifies
linear quotients under every variable-induced lexicographic and reverse
lexicographic ordering of the minimal generators, computes graded Betti
numbers over the rationals for linear-resolution checks, handles
lexsegments and their shadows, and ships exhaustive/randomized search
suites behind the `polymat` command-line tool.
"""

from .betti import (
    BettiTable,
    graded_betti,
    has_linear_resolution,
    taylor_strand_betti,
)
from .core import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    all_variable_orders,
    colon_monomial,
    monomial_lcm,
    unit_ideal,
    unit_monomial,
    variable_monomial,
)
from .corpus import CorpusItem, CorpusSpec, enumerate_corpus, ideal_from_mask
from .errors import (
    AmbientMismatchError,
    BoundExceededError,
    EmptyIdealError,
    InvalidArgumentError,
    NotEquigeneratedError,
    OracleUnavailableError,
    ParseError,
    PolymatError,
    UnitIdealError,
)
from .ioformats import (
    ideal_from_json_dict,
    ideal_to_json_dict,
    load_ideal_text,
    parse_ideal,
    parse_monomial,
    parse_variable_order,
)
from .lexsegment import (
    MonomialSet,
    arnehe_criterion,
    final_segment_ideal,
    is_completely_lexsegment,
    is_lexsegment,
    iterated_shadow,
    lexsegment,
    monomials_of_degree,
    shadow,
)
from .polymatroid import (
    ExchangeWitness,
    exchange_failure,
    is_matroidal,
    is_polymatroidal,
    satisfies_symmetric_exchange,
    symmetric_exchange_failure,
)
from .quotients import (
    ConjectureOutcome,
    ConjectureProbe,
    LQFailure,
    TheoremCheck,
    conjecture_probe,
    has_linear_quotients,
    has_lq_all_orders,
    has_quotients_with_linear_resolution,
    linear_quotients_failure,
    lq_all_orders_failure,
    sort_generators,
    theorem_equivalence,
)
from .suites import (
    CheckReport,
    remark_ideal,
    reproduce_remark,
    reverify_witness,
    run_conjecture_search,
    run_localization_probe,
    run_theorem_suite,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
