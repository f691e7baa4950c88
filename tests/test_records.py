"""The fifteen immutable records of the package: construction, equality,
hash, repr, immutability, pickling and copying, and the checks their
constructors make. Every record compares and hashes as the tuple of its
fields, but is never equal to that tuple. Nine check their arguments in a
constructor of their own and take keywords; the six result records of
``constructions`` and ``arf`` are built positionally."""

import copy
import pickle

import pytest

from csemigroups.arf import PIMonoid, PIStatus
from csemigroups.conjectures import BuchsbaumReport, WilfReport
from csemigroups.constructions import (
    AperyWindowReport,
    DeltaVerification,
    DeltaWitness,
    GluedPF,
    GluingSpec,
    SapsFamily,
)
from csemigroups.errors import DimensionMismatch
from csemigroups.frobenius import FrobeniusReport, RelativeIdeal
from csemigroups.gapsemigroup import Budget, from_gaps
from csemigroups.lattice import IntegerLattice, TermOrder
from csemigroups.membership import AffineSemigroup

GS = from_gaps(1, [(1,), (2,), (3,), (5,)])
GS_REPR = "GapSemigroup(d=1, gaps=[(1,), (2,), (3,), (5,)])"
S1 = AffineSemigroup(1, [(2,), (3,)])
S2 = AffineSemigroup(1, [(5,), (7,)])
WITNESS = DeltaWitness((7, 4), True, (True, True, True, True), True)
WITNESS_REPR = (
    "DeltaWitness(element=(7, 4), outside=True,"
    " shifts_inside=(True, True, True, True), closed_forms_match=True)"
)

# name: (class, positional arguments, keyword arguments in field order or
#        None for a record built positionally only, the field values, the repr)
CASES = {
    "TermOrder": (
        TermOrder,
        ("lex", [1, 0]),
        {"kind": "lex", "perm": (1, 0)},
        ("lex", (1, 0)),
        "TermOrder(kind='lex', perm=(1, 0))",
    ),
    "IntegerLattice": (
        IntegerLattice,
        (2, ((2, 0), (0, 3))),
        {"dimension": 2, "basis": ((2, 0), (0, 3))},
        (2, ((2, 0), (0, 3))),
        "IntegerLattice(dimension=2, basis=((2, 0), (0, 3)))",
    ),
    "Budget": (Budget, (5,), {"max_work": 5}, (5,), "Budget(max_work=5)"),
    "FrobeniusReport": (
        FrobeniusReport,
        (((1, 3), (2, 6)), 2, (2, 6), ((1, 3),), ((1, 3),), False, True, True, True, True),
        {
            "pf": ((1, 3), (2, 6)),
            "betti_type": 2,
            "frobenius": (2, 6),
            "pf_prime": ((1, 3),),
            "omega_extra": ((1, 3),),
            "symmetric": False,
            "pseudo_symmetric": True,
            "almost_symmetric": True,
            "irreducible": True,
            "pf_prime_dominated": True,
        },
        (((1, 3), (2, 6)), 2, (2, 6), ((1, 3),), ((1, 3),), False, True, True, True, True),
        "FrobeniusReport(pf=((1, 3), (2, 6)), betti_type=2, frobenius=(2, 6),"
        " pf_prime=((1, 3),), omega_extra=((1, 3),), symmetric=False,"
        " pseudo_symmetric=True, almost_symmetric=True, irreducible=True,"
        " pf_prime_dominated=True)",
    ),
    "RelativeIdeal": (
        RelativeIdeal,
        (GS, [(6,), (4,)]),
        {"base": GS, "generators": ((4,), (6,))},
        (GS, ((4,), (6,))),
        f"RelativeIdeal(base={GS_REPR}, generators=((4,), (6,)))",
    ),
    "WilfReport": (
        WilfReport,
        (6, 11, 28, 39, True, (2, 6)),
        {
            "embedding_dimension": 6,
            "genus": 11,
            "sporadic": 28,
            "n_frobenius": 39,
            "holds": True,
            "frobenius": (2, 6),
        },
        (6, 11, 28, 39, True, (2, 6)),
        "WilfReport(embedding_dimension=6, genus=11, sporadic=28, n_frobenius=39,"
        " holds=True, frobenius=(2, 6))",
    ),
    "BuchsbaumReport": (
        BuchsbaumReport,
        (((1, 2), (2, 6)), ((2, 6),), False, ((3, 0), (0, 1))),
        {
            "d_set": ((1, 2), (2, 6)),
            "pf": ((2, 6),),
            "is_buchsbaum": False,
            "extremal_rays": ((3, 0), (0, 1)),
        },
        (((1, 2), (2, 6)), ((2, 6),), False, ((3, 0), (0, 1))),
        "BuchsbaumReport(d_set=((1, 2), (2, 6)), pf=((2, 6),), is_buchsbaum=False,"
        " extremal_rays=((3, 0), (0, 1)))",
    ),
    "GluingSpec": (
        GluingSpec,
        (S1, S2, [6]),
        {"s1": S1, "s2": S2, "s": (6,)},
        (S1, S2, (6,)),
        "GluingSpec(s1=AffineSemigroup(d=1, gens=[(2,), (3,)]),"
        " s2=AffineSemigroup(d=1, gens=[(5,), (7,)]), s=(6,))",
    ),
    "PIMonoid": (
        PIMonoid,
        ([4], GS),
        {"offset": (4,), "base": GS},
        ((4,), GS),
        f"PIMonoid(offset=(4,), base={GS_REPR})",
    ),
    "PIStatus": (
        PIStatus,
        ((4,), True, False),
        None,
        ((4,), True, False),
        "PIStatus(multiplicity=(4,), attained=True, is_pi=False)",
    ),
    "GluedPF": (
        GluedPF,
        (((25,), (29,)), 0),
        None,
        (((25,), (29,)), 0),
        "GluedPF(points=((25,), (29,)), collisions=0)",
    ),
    "DeltaWitness": (
        DeltaWitness,
        ((7, 4), True, (True, True, True, True), True),
        None,
        ((7, 4), True, (True, True, True, True), True),
        WITNESS_REPR,
    ),
    "DeltaVerification": (
        DeltaVerification,
        (True, (WITNESS,)),
        None,
        (True, (WITNESS,)),
        f"DeltaVerification(ok=True, witnesses=({WITNESS_REPR},))",
    ),
    "AperyWindowReport": (
        AperyWindowReport,
        (((0, 0), (5, 2)), ((0, 0),), True),
        None,
        (((0, 0), (5, 2)), ((0, 0),), True),
        "AperyWindowReport(formula_side=((0, 0), (5, 2)), window_scan=((0, 0),),"
        " consistent=True)",
    ),
    "SapsFamily": (
        SapsFamily,
        (S1, 2, 5, 1, (15, 15)),
        None,
        (S1, 2, 5, 1, (15, 15)),
        "SapsFamily(semigroup=AffineSemigroup(d=1, gens=[(2,), (3,)]), pf_lower_bound=2,"
        " mu=5, nu=1, gluing_element=(15, 15))",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, args, kwargs, values, text = CASES[request.param]
    keyword = cls(*values) if kwargs is None else cls(**kwargs)
    return cls(*args), keyword, cls._fields, values, text


class TestRecord:
    def test_positional_and_keyword_construction(self, case):
        positional, keyword, names, values, _ = case
        assert tuple(getattr(positional, n) for n in names) == values
        assert tuple(getattr(keyword, n) for n in names) == values

    def test_equal_to_an_equal_record_only(self, case):
        positional, keyword, _, values, _ = case
        assert positional == keyword
        assert not positional != keyword
        assert positional != values
        assert not positional == values

    def test_hash_is_the_field_tuple_hash(self, case):
        positional, keyword, _, values, _ = case
        assert hash(positional) == hash(keyword) == hash(values)

    def test_repr(self, case):
        positional, keyword, _, _, text = case
        assert repr(positional) == repr(keyword) == text

    def test_assignment_and_deletion_raise(self, case):
        record, _, names, values, _ = case
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(getattr(record, n) for n in names) == values

    @pytest.mark.parametrize(
        "duplicate",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copies_are_equal(self, case, duplicate):
        record = case[0]
        twin = duplicate(record)
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)


class TestDefaultsAndChecks:
    def test_defaults(self):
        assert TermOrder("grlex").perm is None
        assert TermOrder(kind="lex") == TermOrder("lex", None)
        assert Budget().max_work == 10**7
        assert Budget() == Budget(max_work=10**7)

    def test_unequal_fields(self):
        assert TermOrder("lex") != TermOrder("grlex")
        assert TermOrder("lex") != TermOrder("lex", (0,))
        assert Budget(5) != Budget(6)

    def test_unknown_term_order(self):
        with pytest.raises(ValueError, match="unknown term order kind 'bogus'"):
            TermOrder("bogus")

    def test_ideal_generator_of_another_dimension(self):
        with pytest.raises(DimensionMismatch):
            RelativeIdeal(GS, [(4,), (1, 2)])

    def test_ideal_generator_outside_the_orthant(self):
        with pytest.raises(ValueError, match="outside N"):
            RelativeIdeal(GS, [(-1,)])

    def test_gluing_dimension_mismatch(self):
        plane = AffineSemigroup(2, [(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            GluingSpec(S1, plane, (6,))
        with pytest.raises(DimensionMismatch):
            GluingSpec(S1, S2, (6, 0))

    def test_pi_offset_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            PIMonoid((0,), GS)

    def test_pi_offset_outside_the_base(self):
        with pytest.raises(ValueError, match="belong to the base"):
            PIMonoid((3,), GS)
