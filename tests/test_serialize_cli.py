import json
import subprocess
import sys
from fractions import Fraction

import pytest

from valgebra.geometry import hull
from valgebra.polynomials import Polynomial
from valgebra.samples import asymmetric_triangle, segment, standard_simplex, unit_cube
from valgebra.serialize import (
    polynomial_from_json,
    polynomial_to_json,
    polytope_from_json,
    polytope_to_json,
    scalar_from_json,
    scalar_to_json,
    valuation_from_json,
    valuation_to_json,
)
from valgebra.valuations import (
    EulerGenerator,
    MVGenerator,
    PDGenerator,
    ProductGenerator,
    Valuation,
)
from valgebra.cli import main

F = Fraction


class TestScalars:
    def test_roundtrip(self):
        for x in (F(3), F(-7, 2), F(0)):
            assert scalar_from_json(scalar_to_json(x)) == x

    def test_integers_stay_integers(self):
        assert scalar_to_json(F(4)) == 4
        assert scalar_to_json(F(1, 2)) == "1/2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            scalar_from_json("one half")
        with pytest.raises(ValueError):
            scalar_from_json(1.5)
        with pytest.raises(ValueError):
            scalar_from_json(True)


class TestPolytopeJson:
    def test_roundtrip(self):
        P = hull([(0, 0), (1, 0), (F(1, 2), F(3, 2))], 2)
        assert polytope_from_json(polytope_to_json(P)) == P

    def test_canonical_sorted(self):
        P = unit_cube(2)
        js = polytope_to_json(P)
        assert js["vertices"] == sorted(js["vertices"])

    def test_parse_redundant_points(self):
        js = {"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2], ["1/2", "1/2"]]}
        P = polytope_from_json(js)
        assert len(P.vertices) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            polytope_from_json({"dim": 2, "vertices": [[0]]})
        with pytest.raises(ValueError):
            polytope_from_json({"dim": 0, "vertices": [[]]})
        with pytest.raises(ValueError):
            polytope_from_json({"vertices": [[0, 0]]})


class TestPolynomialJson:
    def test_roundtrip(self):
        f = Polynomial(2, {(1, 0): F(1, 3), (0, 2): F(-2)})
        assert polynomial_from_json(polynomial_to_json(f)) == f

    def test_validation(self):
        with pytest.raises(ValueError):
            polynomial_from_json({"vars": 2, "terms": [{"exp": [1], "coef": 1}]})


class TestValuationJson:
    def test_roundtrip_all_kinds(self):
        A = unit_cube(2)
        v = Valuation(
            2,
            (
                MVGenerator(2, 1, (A,), F(2, 3)),
                PDGenerator(2, Polynomial(2, {(1, 0): F(1)}), (A,), F(-1)),
                EulerGenerator(2, F(5)),
                ProductGenerator(2, MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (A,))),
            ),
        )
        js = valuation_to_json(v)
        back = valuation_from_json(js)
        assert valuation_to_json(back) == js
        K = standard_simplex(2)
        assert back.evaluate(K) == v.evaluate(K)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            valuation_from_json({"dim": 2, "terms": [{"kind": "mystery"}]})


def run_cli(args, inp=None):
    cmd = [sys.executable, "-m", "valgebra"] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, input=inp, timeout=600)
    return proc


class TestCli:
    def test_mixed_volume_segments(self):
        payload = json.dumps(
            {
                "bodies": [
                    {"dim": 2, "vertices": [[0, 0], [1, 0]]},
                    {"dim": 2, "vertices": [[0, 0], [0, 1]]},
                ]
            }
        )
        proc = run_cli(["mixed-volume", "--input", payload])
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["results"]["mixed_volume"] == "1/2"

    def test_udim(self):
        proc = run_cli(["udim", "--k", "2", "--m", "2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["dimension"] == 2

    def test_lefschetz(self):
        proc = run_cli(["lefschetz", "--h", "1,1,2,1,1"])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["results"]["monotone"] and rep["results"]["duality"]

    def test_evaluate_euler(self):
        payload = json.dumps(
            {
                "valuation": {"dim": 2, "terms": [{"kind": "euler", "coeff": 1}]},
                "body": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
            }
        )
        proc = run_cli(["evaluate", "--input", payload])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["value"] == 1

    def test_malformed_json_exit_2(self):
        body = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
        bad_terms = [
            json.dumps({"valuation": {"dim": 2, "terms": [{"kind": "pd", "density": {"vars": 2, "terms": terms}}]}, "body": body})
            for terms in ([1], "x")
        ]
        for payload in ["{not json"] + bad_terms:
            proc = run_cli(["evaluate", "--input", payload])
            assert proc.returncode == 2, payload
            assert "error" in json.loads(proc.stdout)

    def test_dimension_mismatch_exit_2(self):
        payload = json.dumps(
            {
                "valuation": {"dim": 2, "terms": [{"kind": "euler"}]},
                "body": {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0]]},
            }
        )
        proc = run_cli(["evaluate", "--input", payload])
        assert proc.returncode == 2

    def test_cost_guard_exit_2(self):
        body4 = {"dim": 4, "vertices": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        val4 = {
            "dim": 4,
            "terms": [
                {
                    "kind": "product",
                    "left": {"kind": "mv", "degree": 3, "bodies": [body4], "coeff": 1},
                    "right": {"kind": "mv", "degree": 3, "bodies": [body4], "coeff": 1},
                    "coeff": 1,
                }
            ],
        }
        payload = json.dumps({"valuation": val4, "body": body4})
        proc = run_cli(["evaluate", "--input", payload])
        assert proc.returncode == 2

    def test_byte_identical_reruns(self):
        payload = json.dumps(
            {
                "bodies": [
                    {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"dim": 2, "vertices": [[0, 0], [1, 1]]},
                ]
            }
        )
        a = run_cli(["mixed-volume", "--input", payload, "--seed", "7"])
        b = run_cli(["mixed-volume", "--input", payload, "--seed", "7"])
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_stdin_input(self):
        payload = json.dumps(
            {
                "bodies": [
                    {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
                    {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
                ]
            }
        )
        proc = run_cli(["mixed-volume", "--input", "-"], inp=payload)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["mixed_volume"] == 1

    def test_pairing_command(self):
        tri0 = polytope_to_json(asymmetric_triangle(0))
        tri1 = polytope_to_json(asymmetric_triangle(1))
        pent = polytope_to_json(hull([(0, 0), (3, 1), (1, 3), (-1, 2), (2, -1)], 2))
        quad = polytope_to_json(hull([(0, 0), (2, 0), (3, 2), (0, 1)], 2))

        def mv(body):
            return {"kind": "mv", "degree": 1, "bodies": [body], "coeff": 1}

        payload = json.dumps(
            {
                "left": {"dim": 2, "terms": [mv(tri0), mv(pent)]},
                "right": {"dim": 2, "terms": [mv(tri1), mv(quad)]},
            }
        )
        proc = run_cli(["pairing", "--input", payload])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["results"]["rank"] == 2
        assert rep["results"]["matrix"] == [["3/4", "5/4"], ["9/4", "9/2"]]

    def test_structure_constants_smoke(self):
        proc = run_cli(["structure-constants", "--dim", "2", "--level", "2"])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert "1,1" in rep["results"]["table"]

    def test_intrinsic_command(self):
        payload = json.dumps({"body": polytope_to_json(unit_cube(2))})
        proc = run_cli(["intrinsic", "--input", payload, "--level", "3"])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        vols = rep["results"]["intrinsic_volumes"]
        lo, hi = vols[1]["float"]
        assert lo <= 2 <= hi

    def test_filtration_command(self):
        payload = json.dumps(
            {
                "generators": [
                    {"dim": 2, "terms": [{"kind": "mv", "degree": 2, "bodies": [], "coeff": 1}]},
                ]
            }
        )
        proc = run_cli(["filtration", "--input", payload])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        g = rep["results"]["generators"][0]
        assert g["w_level"] == 2 and g["gamma_level"] == 2

    def test_main_return_value_inprocess(self, capsys):
        rc = main(["udim", "--k", "0", "--m", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["results"]["dimension"] == 1

    def test_decompose_command(self):
        sq = polytope_to_json(unit_cube(2))
        tri = polytope_to_json(standard_simplex(2))
        v = {
            "dim": 2,
            "terms": [
                {"kind": "mv", "degree": 2, "bodies": [], "coeff": 1},
                {"kind": "mv", "degree": 1, "bodies": [sq], "coeff": 2},
                {"kind": "mv", "degree": 0, "bodies": [sq, sq], "coeff": 1},
            ],
        }
        payload = json.dumps({"valuation": v, "bodies": [sq, tri]})
        proc = run_cli(["decompose", "--input", payload])
        assert proc.returncode == 0
        comps = json.loads(proc.stdout)["results"]["components"]
        assert [c["degree"] for c in comps] == [0, 1, 2]
        assert comps[2]["component"]["terms"][0]["degree"] == 2

    def test_verify_exit_codes(self, capsys, monkeypatch):
        import valgebra.cli as cli_mod

        def fake_run_all(seed):
            return [{"id": 1, "name": "stub", "passed": True, "elapsed": 0.0, "details": ""}]

        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_run_all)
        assert main(["verify"]) == 0
        capsys.readouterr()

        def fake_run_all_fail(seed):
            return [{"id": 1, "name": "stub", "passed": False, "elapsed": 0.0, "details": "boom"}]

        monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_run_all_fail)
        assert main(["verify"]) == 1
