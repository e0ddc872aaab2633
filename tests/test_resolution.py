"""Tests for the resolution dual graph and its exports."""

import dataclasses
import hashlib
import inspect
import json
import re
import time

import pytest

from monocurve import qspace, resolution
from monocurve.cli import main
from monocurve.crosscheck import cross_check
from monocurve.errors import BudgetExceeded, InternalInconsistency
from monocurve.resolution import (
    MAX_COMPONENTS,
    _check_tree,
    _listing,
    build_resolution,
    export_graph,
    zeta_from_graph,
)
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup
from monocurve.zeta import zeta_closed_form


def assert_record(obj):
    """``obj``'s hand-written ``__init__`` keeps the generated dataclass behaviour."""
    cls = type(obj)
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert list(vars(obj)) == names
    same = cls(*[getattr(obj, name) for name in names])
    assert same == obj and hash(same) == hash(obj) and same is not obj
    assert repr(same) == repr(obj)
    assert cls(**vars(obj)) == obj
    changed = dataclasses.replace(obj, k=obj.k + 1)
    assert changed != obj and list(vars(changed)) == names
    assert dataclasses.replace(changed, k=obj.k) == obj
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert same == obj


class TestRecords:
    @pytest.mark.parametrize("gens", [(4, 6, 13), (8, 12, 26, 53)])
    def test_levels_and_strata_keep_the_dataclass_contract(self, gens):
        graph = build_resolution(build_semigroup(gens))
        for record in (*graph.levels, *graph.strata):
            assert_record(record)


class TestBuildResolutionG2:
    def setup_method(self):
        self.graph = build_resolution(build_semigroup((4, 6, 13)))

    def test_levels(self):
        lv = self.graph.levels
        assert [l.r for l in lv] == [1, 1]
        assert [l.N for l in lv] == [6, 26]
        assert [l.M for l in lv] == [6, 13]
        assert self.graph.stratum("Q0", 0).multiplicity == 2

    def test_weights(self):
        assert self.graph.levels[0].weights == (4, 6, 6)
        assert self.graph.levels[1].weights == (1, 7)

    def test_euler(self):
        assert [l.chi_open for l in self.graph.levels] == [-2, -1]

    def test_strata(self):
        assert self.graph.stratum("Q0", 0).count == 2
        assert self.graph.stratum("Qk", 1).count == 1
        assert self.graph.stratum("Qk", 2).count == 1
        assert self.graph.stratum("Qkk1", 1).count == 1
        assert self.graph.stratum("Qkk1", 1).multiplicity is None

    def test_chain_shape(self):
        edges = json.loads(export_graph(self.graph))["edges"]
        assert edges == [
            ["H_0", "E_1_1"],
            ["H_1", "E_1_1"],
            ["H_2", "E_2_1"],
            ["E_1_1", "E_2_1"],
            ["E_2_1", "Yhat"],
        ]

    def test_local_types_recorded(self):
        ats = {t.at for t in self.graph.local_types}
        assert ats == {"Q0", "Q1", "Q2", "Egen1", "Egen2", "E1E2"}


def test_local_types_in_positional_order():
    # The order is the layout of the JSON export's "local_types" list.
    for sg in plane_semigroups(40):
        labels = [t.at for t in build_resolution(sg).local_types]
        per_level = [at for k in range(1, sg.g + 1) for at in (f"Q{k}", f"Egen{k}")]
        assert labels == ["Q0", *per_level, *(f"E{k - 1}E{k}" for k in range(2, sg.g + 1))]


class TestLazyLocalTypes:
    def test_checks_and_text_outputs_build_no_types(self, monkeypatch):
        def refuse(sg, rows):
            raise AssertionError(f"local types built for {sg.gens}")

        monkeypatch.setattr(resolution, "_local_types", refuse)
        for sg in plane_semigroups(40):
            assert cross_check(sg) == []
        assert main(["analyze", "--gens", "8,12,26,53"]) == 0
        assert main(["graph", "--gens", "8,12,26,53", "--format", "dot"]) == 0

    def test_first_read_builds_once(self, monkeypatch):
        built = []
        build = resolution._local_types
        monkeypatch.setattr(resolution, "_local_types",
                            lambda sg, rows: built.append(sg) or build(sg, rows))
        graph = build_resolution(build_semigroup((8, 12, 26, 53)))
        assert built == []
        types = graph.local_types
        assert built == [graph.semigroup] and len(types) == 3 * 3
        assert graph.local_types is types and len(built) == 1

    def test_one_row_data_once_per_graph(self, monkeypatch):
        # The checks in build_resolution and the local types of the JSON
        # export read the same one-row orders and rows.
        calls = []
        honest = resolution._one_row_data
        monkeypatch.setattr(resolution, "_one_row_data", lambda sg: calls.append(sg) or honest(sg))
        graph = build_resolution(build_semigroup((8, 12, 26, 53)))
        export_graph(graph, "json")
        assert len(graph.local_types) == 3 * 3
        assert calls == [graph.semigroup]

    @pytest.mark.parametrize("index, message", [
        (0, "Q0 chart type misses M_0"),
        (1, "Q_1 chart type misses M_1"),
        (2, "generic chart type at E_1 misses N_1"),
    ])
    def test_wrong_one_row_order_is_caught(self, monkeypatch, index, message):
        # Doubling one order of the one-row data makes build_resolution fail
        # its multiplicity reproduction, though no type is built.
        honest = resolution._one_row_data

        def doubled(sg):
            rows = honest(sg)
            d, a = rows[index]
            rows[index] = (2 * d, a)
            return rows

        monkeypatch.setattr(resolution, "_one_row_data", doubled)
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            build_resolution(build_semigroup((4, 6, 13)))


class TestChecksFire:
    """Each check of the graph fires when one of its inputs is patched to a wrong value."""

    def test_missing_stratum(self):
        graph = build_resolution(build_semigroup((4, 6, 13)))
        for kind, k in [("Qkk1", 2), ("Qk", 0), ("Q0", 1), ("Ek", 1)]:
            with pytest.raises(KeyError) as caught:
                graph.stratum(kind, k)
            assert caught.value.args == ((kind, k),)

    @pytest.mark.parametrize("gens", [(4, 6, 13), (8, 12, 26, 53)])
    def test_last_two_component_counts(self, gens):
        # r_g = e_g / L_{g+1} with e_g doubled, then r_{g-1} = e_{g-1} / L_g with L_g = 1.
        sg = build_semigroup(gens)
        doubled = dataclasses.replace(sg, e=(*sg.e[:-1], 2 * sg.e[-1]))
        unit_tail = dataclasses.replace(sg)
        vars(unit_tail)["L"] = (*sg.L[:-2], 1, sg.L[-1])
        for patched in (doubled, unit_tail):
            with pytest.raises(InternalInconsistency, match=r"^r_\(g-1\) and r_g must both be 1$"):
                build_resolution(patched)

    @pytest.mark.parametrize("N_2", [2, 13])
    def test_multiplicities_divide_N(self, monkeypatch, N_2):
        # At 4,6,13 (M_2, L_2) = (13, 2): N_2 = 2 misses M_2, N_2 = 13 misses L_2.
        honest = resolution.resolution_multiplicities
        monkeypatch.setattr(resolution, "resolution_multiplicities",
                            lambda sg: (honest(sg)[0], (honest(sg)[1][0], N_2)))
        with pytest.raises(InternalInconsistency, match="^M_2 or L_2 does not divide N_2$"):
            build_resolution(build_semigroup((4, 6, 13)))

    @pytest.mark.parametrize("name, axis, message", [
        ("curve_component_count", None, "component count of E_{k} disagrees"),
        ("_axis_count", 0, "|E_{k} ∩ previous divisor| disagrees"),
        ("_axis_count", 1, "|E_{k} ∩ H_{k}| disagrees"),
        ("curve_open_euler", None, "chi(E_{k} open) disagrees"),
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_qspace_count_disagrees(self, monkeypatch, name, axis, message, k):
        # One count of the quotient-space machinery is one too high, from the
        # homogeneous system of E_k of 8,12,26,53 on; k = 2 compares the
        # previous-divisor count with r_1 rather than |Q0|.  An axis total is
        # the per-component count of qspace._axis_count times r_k.
        honest = getattr(qspace, name)

        def wrong(spec, *args):
            value = honest(spec, *args)
            if spec != specs[k - 1] or (axis is not None and args[0] != axis):
                return value
            return value + 1

        sg = build_semigroup((8, 12, 26, 53))
        specs = [resolution._homogeneous_spec(sg, lvl) for lvl in build_resolution(sg).levels[:-1]]
        monkeypatch.setattr(qspace, name, wrong)
        with pytest.raises(InternalInconsistency, match=f"^{re.escape(message.format(k=k))}$"):
            build_resolution(sg)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_axis_count_chart_3_disagrees(self, monkeypatch, axis):
        # E_1 of 8,12,26,53 has r = 3, so the axis core compares its chart-2
        # count with chart 3 there; chart 3 one too high must stop the build.
        sg = build_semigroup((8, 12, 26, 53))
        spec = resolution._homogeneous_spec(sg, build_resolution(sg).levels[0])
        per, _ = qspace.curve_axis_intersections(spec, axis)
        honest = qspace._axis_count_chart
        monkeypatch.setattr(qspace, "_axis_count_chart",
                            lambda spec, ax, c, tail_gcd:
                            honest(spec, ax, c, tail_gcd) + (ax == axis and c == 3))
        with pytest.raises(InternalInconsistency,
                           match=f"^axis-{axis} count differs on chart 3: {per + 1} != {per}$"):
            build_resolution(sg)

    @pytest.mark.parametrize("field, value", [("chi_open", -2), ("r", 2)])
    def test_last_divisor_single_rational(self, field, value):
        # Through build_resolution r_g = 1 is checked first and chi(E_g) =
        # -n_g*b_g/N_g = -1 follows from gcd(b_g, n_g) = 1, so the check is
        # fired on a graph whose last level alone is patched.
        sg = build_semigroup((8, 12, 26, 53))
        graph = build_resolution(sg)
        last = dataclasses.replace(graph.levels[-1], **{field: value})
        patched = dataclasses.replace(graph, levels=(*graph.levels[:-1], last))
        with pytest.raises(InternalInconsistency,
                           match="^E_g must be a single rational component$"):
            resolution._cross_validate(sg, patched)


class TestExportedLocalTypes:
    def test_json_matches_local_types(self):
        # The export and graph.local_types read the same integers.
        for sg in plane_semigroups(120):
            graph = build_resolution(sg)
            exported = json.loads(export_graph(graph, "json"))["local_types"]
            want = [{"at": t.at, "d": t.qtype.d, "A": t.qtype.A} for t in graph.local_types]
            assert exported == json.loads(json.dumps(want))

    def test_json_export_builds_no_types(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("LocalType built by the JSON export")

        monkeypatch.setattr(resolution, "LocalType", refuse)
        graph = build_resolution(build_semigroup((8, 12, 26, 53)))
        assert len(json.loads(export_graph(graph, "json"))["local_types"]) == 3 * 3
        assert main(["analyze", "--gens", "8,12,26,53", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["resolution"]["local_types"]) == 3 * 3
        with pytest.raises(AssertionError, match="LocalType built"):
            graph.local_types


class TestBuildResolutionG3:
    def setup_method(self):
        self.graph = build_resolution(build_semigroup((8, 12, 26, 53)))

    def test_component_counts(self):
        assert [l.r for l in self.graph.levels] == [2, 1, 1]

    def test_q0(self):
        assert self.graph.stratum("Q0", 0).count == 4

    def test_e2_meets_both_e1_components(self):
        edges = json.loads(export_graph(self.graph))["edges"]
        assert ["E_1_1", "E_2_1"] in edges
        assert ["E_1_2", "E_2_1"] in edges

    def test_listing_is_checked_as_a_tree(self):
        nodes, edges = _listing(self.graph)
        block_edges = [ed for ed in edges if ed[0].startswith("E_") and ed[1].startswith("E_")]
        assert block_edges == [("E_1_1", "E_2_1"), ("E_1_2", "E_2_1"), ("E_2_1", "E_3_1")]
        with pytest.raises(InternalInconsistency,
                           match="^dual graph not a tree: 3 edges on 5 nodes$"):
            _check_tree(nodes, [ed for ed in edges if ed != block_edges[1]])
        # The count is right, but E_1_2 is cut off by a duplicate edge.
        duplicated = [block_edges[0] if ed == block_edges[1] else ed for ed in edges]
        with pytest.raises(InternalInconsistency,
                           match="^dual graph not connected on exceptional part$"):
            _check_tree(nodes, duplicated)

    def test_axis_counts_split_evenly(self):
        # |E_1 cap H_0| = 4 splits as 2 per component of E_1.
        r1 = self.graph.levels[0].r
        assert self.graph.stratum("Q0", 0).count % r1 == 0


class TestZetaFromGraph:
    def test_matches_closed_form(self):
        for gens in ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37)):
            sg = build_semigroup(gens)
            assert zeta_from_graph(build_resolution(sg)) == zeta_closed_form(sg)

    def test_render_example(self):
        graph = build_resolution(build_semigroup((4, 6, 13)))
        assert zeta_from_graph(graph).render() == (
            "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"
        )


class TestExport:
    def test_json_round_trip(self):
        graph = build_resolution(build_semigroup((4, 6, 13)))
        doc = json.loads(export_graph(graph, "json"))
        assert doc["gens"] == [4, 6, 13]
        assert [lvl["N"] for lvl in doc["levels"]] == [6, 26]
        assert ["H_0", "E_1_1"] in doc["edges"]
        kinds = {(s["kind"], s["k"]): s["count"] for s in doc["strata"]}
        assert kinds[("Q0", 0)] == 2
        at = {t["at"]: t for t in doc["local_types"]}
        assert at["Q0"]["d"] == [6]
        assert at["Q0"]["A"] == [[4, 5]]

    def test_json_deterministic(self):
        graph = build_resolution(build_semigroup((8, 12, 26, 53)))
        assert export_graph(graph, "json") == export_graph(graph, "json")

    def test_dot(self):
        graph = build_resolution(build_semigroup((4, 6, 13)))
        dot = export_graph(graph, "dot")
        assert dot.startswith("graph resolution {")
        assert dot.rstrip().endswith("}")
        assert '"E_1_1"' in dot and '"E_2_1"' in dot
        assert "Ŷ" in dot
        assert "[6]" in dot and "[26]" in dot

    def test_unknown_format(self):
        graph = build_resolution(build_semigroup((4, 6, 13)))
        with pytest.raises(ValueError):
            export_graph(graph, "svg")


class TestFuzzedConsistency:
    def test_random_semigroups(self):
        for seed in range(60):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            graph = build_resolution(sg)  # internal cross-checks raise on bugs
            assert zeta_from_graph(graph) == zeta_closed_form(sg)
            assert graph.levels[-1].r == 1
            assert graph.levels[-1].chi_open == -1
            # chi of the full exceptional open part plus point strata gives
            # chi of the exceptional locus minus the strict transform points.
            for lvl in graph.levels:
                assert lvl.chi_open % lvl.r == 0


def all_two_chain(g):
    """The plane semigroup with every ``n_i = 2``: 4,6,13, then 8,12,26,53, ..."""
    gens = [2**g, 3 * 2 ** (g - 1)]
    for k in range(2, g + 1):
        gens.append(2 * gens[-1] + 2 ** (g - k))
    return tuple(gens)


class TestPinnedExports:
    def test_graph_texts_pinned(self):
        """sha256 of both exports over the b_g <= 120 stratum and 200 seeded draws."""
        sgs = [*plane_semigroups(120),
               *(random_semigroup(i, 2 + i % 4, 10**6) for i in range(200))]
        digest = hashlib.sha256()
        for sg in sgs:
            graph = build_resolution(sg)
            for fmt in ("json", "dot"):
                digest.update(export_graph(graph, fmt).encode())
        assert len(sgs) == 3286
        assert digest.hexdigest() == (
            "ac5f011178806129303a7373ec8247acb7eb724bc6ccc51c1475f592f1cdee22"
        )


class TestComponentCap:
    def test_all_two_chains_have_2_to_the_g_minus_1_components(self):
        for g in (2, 3, 4, 6):
            sg = build_semigroup(all_two_chain(g))
            assert sum(lvl.r for lvl in build_resolution(sg).levels) == 2 ** (g - 1)

    def test_first_chain_past_the_cap(self):
        # g = 17 lists exactly MAX_COMPONENTS = 2^16 components; g = 18 twice that.
        assert MAX_COMPONENTS == 2**16
        graph = build_resolution(build_semigroup(all_two_chain(18)))
        for fmt in ("json", "dot"):
            with pytest.raises(
                BudgetExceeded, match="^131072 exceptional components exceed the cap 65536$"
            ):
                export_graph(graph, fmt)

    @pytest.mark.parametrize("g", [18, 40])
    def test_counts_past_the_cap(self, g):
        # The graph keeps counts only, so every check runs past the listing cap.
        sg = build_semigroup(all_two_chain(g))
        graph = build_resolution(sg)
        assert sum(lvl.r for lvl in graph.levels) == 2 ** (g - 1)
        assert zeta_from_graph(graph) == zeta_closed_form(sg)
        start = time.perf_counter()
        assert cross_check(sg) == []
        assert time.perf_counter() - start < 1.0

    def test_cross_check_at_depth_400(self):
        # b_g has about 800 bits.  The quotient-space counts take level-local
        # products, so cross_check stays polynomial in the bit length: about
        # 1 s on a 2-core host, where products over all tail weights took 30 s.
        sg = build_semigroup(all_two_chain(400))
        start = time.perf_counter()
        assert cross_check(sg) == []
        assert time.perf_counter() - start < 5.0
