"""StudySpec expansion: cells, ids, validation, fingerprints, and the
``--seeds`` syntax it is built from."""

import pytest

from repro.experiments import Cell, StudySpec
from repro.experiments.spec import parse_seeds


class TestParseSeeds:
    def test_list(self):
        assert parse_seeds("101,102, 7") == [101, 102, 7]

    def test_inclusive_range(self):
        assert parse_seeds("101-104") == [101, 102, 103, 104]
        assert parse_seeds("5-5") == [5]

    def test_list_and_ranges_mixed(self):
        assert parse_seeds("1,3-5,9") == [1, 3, 4, 5, 9]

    @pytest.mark.parametrize("text", ["5-3", "", " , "])
    def test_rejects_a_reversed_range_or_no_seeds(self, text):
        with pytest.raises(ValueError):
            parse_seeds(text)

    def test_feeds_a_spec(self):
        spec = StudySpec.build("fleet", seeds=parse_seeds("1-2,4"))
        assert [cell.seed for cell in spec.cells()] == [1, 2, 4]


class TestCellIds:
    def test_seed_only(self):
        assert Cell(seed=7).cell_id == "seed7"

    def test_params_sorted_into_id(self):
        cell = Cell(seed=3, params=(("zeta", 1), ("alpha", 0.5)))
        assert cell.cell_id == "seed3_alpha=0.5_zeta=1"

    def test_unsafe_characters_sanitised(self):
        cell = Cell(seed=1, params=(("path", "a/b c"),))
        assert "/" not in cell.cell_id
        assert " " not in cell.cell_id


class TestExpansion:
    def test_seeds_cross_grid(self):
        spec = StudySpec.build("fleet", seeds=[1, 2],
                               grid={"skew": [0.6, 0.8, 1.0]})
        cells = spec.cells()
        assert len(cells) == 6
        assert len({c.cell_id for c in cells}) == 6
        assert {c.seed for c in cells} == {1, 2}
        assert {dict(c.params)["skew"] for c in cells} == {0.6, 0.8, 1.0}

    def test_base_params_reach_every_cell(self):
        spec = StudySpec.build("fleet", seeds=[1], params={"homes": 10},
                               grid={"skew": [0.6, 0.8]})
        for cell in spec.cells():
            assert dict(cell.params)["homes"] == 10

    def test_expansion_order_is_stable(self):
        spec = StudySpec.build("fleet", seeds=[2, 1],
                               grid={"a": [True, False]})
        ids = [c.cell_id for c in spec.cells()]
        assert ids == [c.cell_id for c in spec.cells()]

    def test_grid_declaration_order_does_not_change_ids(self):
        a = StudySpec.build("fleet", seeds=[1],
                            grid={"x": [1, 2], "y": [3]})
        b = StudySpec.build("fleet", seeds=[1],
                            grid={"y": [3], "x": [1, 2]})
        assert {c.cell_id for c in a.cells()} \
            == {c.cell_id for c in b.cells()}


class TestValidation:
    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            StudySpec.build("fleet", seeds=[])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StudySpec.build("fleet", seeds=[1, 1])

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            StudySpec.build("fleet", seeds=[1], grid={"skew": []})

    def test_grid_axis_shadowing_base_param_rejected(self):
        with pytest.raises(ValueError, match="shadows"):
            StudySpec.build("fleet", seeds=[1], params={"skew": 0.5},
                            grid={"skew": [0.6]})

    def test_repeated_grid_value_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            StudySpec.build("fleet", seeds=[1], grid={"skew": [0.6, 0.6]})


class TestFingerprint:
    def test_workers_excluded(self):
        a = StudySpec.build("fleet", seeds=[1, 2], workers=2)
        b = StudySpec.build("fleet", seeds=[1, 2], workers=8)
        assert a.fingerprint() == b.fingerprint()

    def test_cell_set_changes_fingerprint(self):
        a = StudySpec.build("fleet", seeds=[1, 2])
        b = StudySpec.build("fleet", seeds=[1, 3])
        assert a.fingerprint() != b.fingerprint()
