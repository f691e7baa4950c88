"""The fifteen immutable records of the package: construction, equality,
hash, repr, immutability, pickling and copying, serialization, and the
checks their constructors make. Every record compares and hashes as the
tuple of its fields, but is never equal to that tuple, and takes its
fields by position, by name or both. Five check or default their arguments
in a constructor of their own; the other ten are bound by ``_Record``
itself, which names the fields when one is missing, unknown or given
twice. The result records serialize from their fields exactly as
``csg --json`` prints them."""

import copy
import json
import pickle
import re

import pytest

from csemigroups.arf import PIMonoid, PIStatus, is_pi, pi_decompose
from csemigroups.cli import main
from csemigroups.conjectures import BuchsbaumReport, WilfReport, buchsbaum_report, wilf_report
from csemigroups.constructions import (
    AperyWindowReport,
    DeltaVerification,
    DeltaWitness,
    GluedPF,
    GluingSpec,
    SapsFamily,
    apery_sap_window,
)
from csemigroups.errors import DimensionMismatch
from csemigroups.frobenius import FrobeniusReport, RelativeIdeal, classify
from csemigroups.gapsemigroup import Budget, from_gaps, from_generators
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

# name: (class, positional arguments, keyword arguments in field order,
#        the field values, the repr)
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
        {"multiplicity": (4,), "attained": True, "is_pi": False},
        ((4,), True, False),
        "PIStatus(multiplicity=(4,), attained=True, is_pi=False)",
    ),
    "GluedPF": (
        GluedPF,
        (((25,), (29,)), 0),
        {"points": ((25,), (29,)), "collisions": 0},
        (((25,), (29,)), 0),
        "GluedPF(points=((25,), (29,)), collisions=0)",
    ),
    "DeltaWitness": (
        DeltaWitness,
        ((7, 4), True, (True, True, True, True), True),
        {
            "element": (7, 4),
            "outside": True,
            "shifts_inside": (True, True, True, True),
            "closed_forms_match": True,
        },
        ((7, 4), True, (True, True, True, True), True),
        WITNESS_REPR,
    ),
    "DeltaVerification": (
        DeltaVerification,
        (True, (WITNESS,)),
        {"ok": True, "witnesses": (WITNESS,)},
        (True, (WITNESS,)),
        f"DeltaVerification(ok=True, witnesses=({WITNESS_REPR},))",
    ),
    "AperyWindowReport": (
        AperyWindowReport,
        (((0, 0), (5, 2)), ((0, 0),), True),
        {"formula_side": ((0, 0), (5, 2)), "window_scan": ((0, 0),), "consistent": True},
        (((0, 0), (5, 2)), ((0, 0),), True),
        "AperyWindowReport(formula_side=((0, 0), (5, 2)), window_scan=((0, 0),),"
        " consistent=True)",
    ),
    "SapsFamily": (
        SapsFamily,
        (S1, 2, 5, 1, (15, 15)),
        {"semigroup": S1, "pf_lower_bound": 2, "mu": 5, "nu": 1, "gluing_element": (15, 15)},
        (S1, 2, 5, 1, (15, 15)),
        "SapsFamily(semigroup=AffineSemigroup(d=1, gens=[(2,), (3,)]), pf_lower_bound=2,"
        " mu=5, nu=1, gluing_element=(15, 15))",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, args, kwargs, values, text = CASES[request.param]
    return cls(*args), cls(**kwargs), cls._fields, values, text


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


# records whose fields are bound by ``_Record.__init__`` itself
PLAIN = [name for name, (cls, *_) in CASES.items() if "__init__" not in vars(cls)]

# kind: a call that gets the fields of a record wrong
BAD_FIELDS = {
    "missing": lambda cls, kwargs, values: cls(*values[:-1]),
    "missing by name": lambda cls, kwargs, values: cls(**dict(list(kwargs.items())[1:])),
    "unknown": lambda cls, kwargs, values: cls(*values, bogus=1),
    "extra": lambda cls, kwargs, values: cls(*values, None),
    "repeated": lambda cls, kwargs, values: cls(*values[:1], **kwargs),
}


class TestFieldBinding:
    def test_plain_records(self):
        # all but the five that check or default their arguments
        assert len(PLAIN) == 10

    @pytest.mark.parametrize("name", PLAIN)
    def test_positional_head_and_keyword_tail(self, name):
        cls, _, kwargs, values, _ = CASES[name]
        for k in range(len(values) + 1):
            tail = dict(list(kwargs.items())[k:])
            assert cls(*values[:k], **tail) == cls(*values)

    @pytest.mark.parametrize("kind", sorted(BAD_FIELDS))
    @pytest.mark.parametrize("name", PLAIN)
    def test_missing_unknown_extra_and_repeated_fields(self, name, kind):
        cls, _, kwargs, values, _ = CASES[name]
        with pytest.raises(TypeError, match=re.escape(repr(cls._fields))):
            BAD_FIELDS[kind](cls, kwargs, values)


PAPER_S2 = "(0,1);(3,0);(4,0);(1,4);(5,0);(2,7)"
S2_GS = from_generators([(0, 1), (3, 0), (4, 0), (1, 4), (5, 0), (2, 7)])
PI_NUMERICAL = AffineSemigroup(1, [(3,), (4,), (5,)])

# (csg argv, the record the command prints)
PRINTED = {
    "WilfReport": (["wilf", "--gens", PAPER_S2], lambda: wilf_report(S2_GS)),
    "BuchsbaumReport": (["buchsbaum", "--gens", PAPER_S2], lambda: buchsbaum_report(S2_GS)),
    "FrobeniusReport": (["classify", "--gens", PAPER_S2], lambda: classify(S2_GS)),
    "PIStatus": (["pi", "check", "--gens", "3;4;5"], lambda: is_pi(PI_NUMERICAL)),
    "PIMonoid": (["pi", "decompose", "--gens", "3;4;5"], lambda: pi_decompose(PI_NUMERICAL)),
}


class TestToJson:
    @pytest.mark.parametrize("name", sorted(PRINTED))
    def test_matches_csg_json(self, capsys, name):
        argv, record = PRINTED[name]
        assert main(["--json"] + argv) == 0
        report = record()
        assert type(report).__name__ == name
        assert report.to_json() == json.loads(capsys.readouterr().out)

    def test_apery_window_matches_csg_json(self, capsys):
        argv = ["--json", "family", "sap", "-a", "3", "-p", "1", "--verify", "--window", "(20,20)"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)["apery_window"]
        report = apery_sap_window(3, 1, (20, 20))
        assert type(report) is AperyWindowReport
        assert report.to_json() == printed

    def test_classification_is_nested(self):
        data = classify(S2_GS).to_json()
        assert list(data) == list(FrobeniusReport._fields[:5]) + ["classification"]
        assert list(data["classification"]) == list(FrobeniusReport._fields[5:])

    def test_nested_records_and_semigroups(self):
        verification = DeltaVerification(True, (WITNESS,))
        assert verification.to_json() == {
            "ok": True,
            "witnesses": [
                {
                    "element": [7, 4],
                    "outside": True,
                    "shifts_inside": [True, True, True, True],
                    "closed_forms_match": True,
                }
            ],
        }
        assert PIMonoid((4,), GS).to_json() == {"offset": [4], "base": GS.to_json()}
        assert TermOrder("grlex").to_json() == {"kind": "grlex"}
