import json
from pathlib import Path

import pytest

from lowk.classify import (
    SubgroupDescriptor,
    maximal_finite_subgroups,
    maximal_vc_classes_b4,
    vc_classes_b4,
    virtually_cyclic_classes,
    virtually_cyclic_classes_odd,
)
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
)

from helpers import order_census

GOLDEN = Path(__file__).parent / "golden"


def names(descriptors):
    return [d.name for d in descriptors]


def test_small_strand_counts():
    assert names(maximal_finite_subgroups(1)) == ["Z_1"]
    assert names(maximal_finite_subgroups(2)) == ["Z_2"]
    assert names(maximal_finite_subgroups(3)) == ["Dic_12"]


def test_four_strands():
    result = maximal_finite_subgroups(4)
    assert names(result) == ["Q16", "T*"]
    assert all(d.maximal for d in result)


def test_five_and_six_strands():
    # derived by applying the congruence rules by hand
    assert names(maximal_finite_subgroups(5)) == ["Z_8", "Dic_12", "Dic_20"]
    assert names(maximal_finite_subgroups(6)) == ["Z_10", "Dic_24", "O*"]


def test_congruence_activation():
    # T* appears exactly when n = 4 mod 6, O* when n = 0 or 2 mod 6,
    # I* when n is 0, 2, 12 or 20 mod 30
    for n in range(4, 70):
        kinds = {d.kind for d in maximal_finite_subgroups(n)}
        assert ("tstar" in kinds) == (n % 6 == 4), n
        assert ("ostar" in kinds) == (n % 6 in (0, 2)), n
        assert ("istar" in kinds) == (n % 30 in (0, 2, 12, 20)), n
        assert ("cyclic" in kinds) == (n >= 5), n
        dic_ms = {d.m for d in maximal_finite_subgroups(n) if d.kind == "dicyclic"}
        expected = {n} | ({n - 2} if n == 5 or n >= 7 else set())
        assert dic_ms == expected, n


def test_output_deterministic_and_sorted():
    for n in (4, 5, 9, 12, 30):
        a = maximal_finite_subgroups(n)
        b = maximal_finite_subgroups(n)
        assert a == b
        assert a == sorted(a, key=SubgroupDescriptor.sort_key)


def test_vc_odd_rejects_even():
    with pytest.raises(ValueError):
        virtually_cyclic_classes_odd(6)
    with pytest.raises(ValueError):
        virtually_cyclic_classes_odd(1)
    # the one dispatcher answers n = 4 and odd n >= 3, and refuses every other n
    assert virtually_cyclic_classes(4) == vc_classes_b4()
    for n in range(3, 62, 2):
        assert virtually_cyclic_classes(n) == virtually_cyclic_classes_odd(n), n
    for n in (-1, 0, 1, 2, 6, 8):
        with pytest.raises(ValueError, match="odd n >= 3 and n = 4"):
            virtually_cyclic_classes(n)


def test_vc_n3_finite_only():
    result = virtually_cyclic_classes_odd(3)
    assert all(d.kind in ("cyclic", "dicyclic") for d in result)
    assert set(names(result)) == {"Z_1", "Z_2", "Z_3", "Z_4", "Z_6", "Dic_12"}


def _flatten_golden(doc):
    out = set()
    for d in doc["finite"]:
        out.add(("finite", d["name"]))
    for d in doc["type_I"]:
        out.add(("type_I", d["finite_part"], d["action_order"]))
    for d in doc["type_II"]:
        out.add(("type_II", tuple(d["factors"]), d["core"]))
    return out


def _flatten_result(descriptors):
    out = set()
    for d in descriptors:
        if d.kind in ("cyclic", "dicyclic"):
            out.add(("finite", d.name))
        elif d.kind == "type_I":
            out.add(("type_I", d.finite_part, d.action_order))
        else:
            out.add(("type_II", d.factors, d.core))
    return out


@pytest.mark.parametrize("n", [5, 7])
def test_vc_odd_against_golden(n):
    golden = json.loads((GOLDEN / f"vcodd_n{n}.json").read_text())
    assert _flatten_result(virtually_cyclic_classes_odd(n)) == _flatten_golden(golden)


def test_vc_n5_type_ii_parameters():
    result = virtually_cyclic_classes_odd(5)
    type_ii = {d.name for d in result if d.kind == "type_II"}
    assert type_ii == {"Z_4 *_{Z_2} Z_4", "Z_8 *_{Z_4} Z_8"}


def test_finite_vc_classes_embed_in_a_maximal_one():
    # order-census comparison: every finite class fits inside some maximal class
    builders = {
        "cyclic": build_cyclic,
        "dicyclic": build_dicyclic,
        "tstar": lambda _: build_binary_polyhedral("T*"),
        "ostar": lambda _: build_binary_polyhedral("O*"),
        "istar": lambda _: build_binary_polyhedral("I*"),
    }
    for n in (3, 5, 7, 9):
        maximal_census = []
        for d in maximal_finite_subgroups(n):
            maximal_census.append(order_census(builders[d.kind](d.m)))
        for d in virtually_cyclic_classes_odd(n):
            if d.kind not in ("cyclic", "dicyclic"):
                continue
            census = order_census(builders[d.kind](d.m))
            assert any(
                all(census[o] <= big.get(o, 0) for o in census)
                for big in maximal_census
            ), (n, d.name)


def test_vc_b4_lists():
    result = vc_classes_b4()
    type_ii = [d for d in result if d.kind == "type_II"]
    assert len(type_ii) == 5
    assert {d.name for d in type_ii} == {
        "Z_4 *_{Z_2} Z_4",
        "Z_8 *_{Z_4} Z_8",
        "Z_8 *_{Z_4} Q8",
        "Q8 *_{Z_4} Q8",
        "Q16 *_{Q8} Q16",
    }
    q16_entry = next(d for d in type_ii if d.factors == ("Q16", "Q16"))
    assert "two abstract isomorphism classes" in q16_entry.notes
    type_i = [d for d in result if d.kind == "type_I"]
    assert {(d.finite_part, d.action_order) for d in type_i} == {
        ("Z_1", 1), ("Z_2", 1), ("Z_4", 1), ("Z_4", 2),
        ("Q8", 1), ("Q8", 2), ("Q8", 3),
    }


def test_maximal_vc_b4():
    result = maximal_vc_classes_b4()
    by_name = {d.name: d for d in result}
    assert by_name["T*"].maximal is True
    assert by_name["Q16"].maximal is False
    for j in (2, 3):
        assert by_name[f"Q8 x|_{j} Z"].maximal is True
    assert by_name["Q8 x Z"].maximal is True
    amalgam = by_name["Q16 *_{Q8} Q16"]
    assert amalgam.maximal is True
    infinite_classes = [d for d in result if d.kind in ("type_I", "type_II")]
    assert all(
        any("infinitely many" in note for note in d.notes) for d in infinite_classes
    )


def test_descriptor_json_shape():
    d = maximal_finite_subgroups(5)[0]
    js = d.to_json()
    assert js["kind"] == "cyclic"
    assert js["name"] == "Z_8"
    assert js["order"] == 8
    assert js["maximal"] is True
