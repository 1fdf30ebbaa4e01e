"""Golden outputs: sha256 of the exact path's reports, pinned byte for byte.

The hashes were taken from the dict-based residual path that preceded the
packed Phi_N-reduced one; a change to the residual path must leave every
one of them unchanged.
"""

import contextlib
import hashlib
import io
import json

import pytest

from eiskron.cli import main
from eiskron.relations import (HomPoly, RelationInstance, bracket, coeff_alpha,
                               poly_P, relation_residual, verify_instance)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_sha(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return sha(buf.getvalue())


SCAN_WIDE = "42e8238309a827a43b60191a1c35e3c98c8bc707ed0480c20bac2501ea8c1058"

CLI_GOLDEN = [
    # acceptance criterion 1's scan, whole: its own test checks only that
    # no instance failed, and this pins the instance count and the summary
    (("scan", "--level-max", "6", "--weight-max", "8", "--order", "40", "--json"),
     "a9885d1a1777b6b35e6659e8c6b706b0e16d29edb580ee034c86670833b24d48"),
    (("scan", "--level-max", "4", "--weight-max", "4", "--order", "40", "--json"),
     SCAN_WIDE),
    (("scan", "--level-max", "4", "--weight-max", "4", "--order", "40", "--json",
      "--parallel", "2"), SCAN_WIDE),
    (("scan", "--level-max", "3", "--weight-max", "4", "--order", "160", "--json"),
     "bb54dc54c4b49458637205ef9559ec159b16cdc293b1629deae3e5162c690bb3"),
    # limbs past 8 bytes: products up to 9 bytes wide, residuals up to 10
    (("scan", "--level-max", "4", "--weight-max", "8", "--order", "100", "--json"),
     "4852691a74553e64e63c6fd8c5e1db0ebc7de7ac17981fe53ebba13a3667808f"),
    (("verify", "--level", "4", "--weight", "5", "--split", "2,1", "--a", "1,2",
      "--b", "3,3", "--json"),
     "9d19cce7ff1d73e579b800d5b572c3f4374f7560778040d08112c2b30f715d9e"),
    (("verify", "--level", "4", "--weight", "5", "--split", "2,1", "--a", "1,2",
      "--b", "3,3"),
     "091993090231ea92d05744ab24f1dd847d3476e14fd1aba9736df6ff083cdd38"),
    (("expand", "--level", "5", "--weight", "3", "--a", "2,1", "--order", "30",
      "--json"),
     "85cfe50c174456c57e6f9143110e2e11af334ff91e68fba57c12d26c90357ca7"),
    (("expand", "--level", "5", "--weight", "3", "--a", "2,1", "--order", "30"),
     "cba9787349f46dcfd084ac5fe0922eded1376ce95bee9470eae5b8024ac12463"),
    # rescale_exponents of the Gamma_1(N) variant
    (("bg-series", "--level", "4", "--weight", "3", "--a", "1", "--order", "20",
      "--json"),
     "9b74cc466a5107474e5fcfa89628b75cbf40171d573cf4103e8c5333030c0f51"),
    (("bg-series", "--level", "4", "--weight", "3", "--a", "1", "--order", "20"),
     "137647c5a1f35c93cc0f958f958fa28069bebf35f04eb7601b7eb4a6e14c92cc"),
    # the float relation check: every split at four point pairs, the four
    # summed from one Fourier grid per point
    (("numeric", "--check", "relation", "--weight", "6", "--json"),
     "aeae32554e274de0d065f16f9cb4b1172d34cb9515857cc0fabefcc26592af15"),
]


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN, ids=lambda v: " ".join(v)
                         if isinstance(v, tuple) else None)
def test_cli_output_pinned(argv, digest):
    assert cli_sha(*argv) == digest


INSTANCES = [(3, 2, 0, 0, (1, 0), (0, 1)), (3, 4, 1, 1, (1, 0), (0, 1)),
             (4, 5, 2, 1, (1, 2), (3, 3))]


@pytest.mark.parametrize("args,digest", zip(INSTANCES, [
    "196895209de0d48b61be551d06955c833c1b279964ba73e7517dc97e0a3da327",
    "d0c31b20e0da20dfb8805023fe631b55d53201ca8c92e847a97f045d156f7211",
    "c734314e88f80abfaa38336ee5615d5da8d5b149f4ac0edbe5909d803a486b98",
]))
def test_alpha_plus_one_report_pinned(args, digest):
    inst = RelationInstance(*args)
    report = verify_instance(inst, 40, alpha=coeff_alpha(inst.k1, inst.k2) + 1)
    assert sha(json.dumps(report, sort_keys=True)) == digest


@pytest.mark.parametrize("args,digest", zip(INSTANCES, [
    "196895209de0d48b61be551d06955c833c1b279964ba73e7517dc97e0a3da327",
    "622ff7f4db365d70f059a724dba4d88361356ba8cc18ab094bd700b4f65b5bb8",
    "c734314e88f80abfaa38336ee5615d5da8d5b149f4ac0edbe5909d803a486b98",
]))
def test_mutated_P_report_pinned(args, digest):
    inst = RelationInstance(*args)
    P = poly_P(inst.k1, inst.k2)
    bad = HomPoly(P.degree, [P.coeffs[0] + 1, *P.coeffs[1:]])
    assert sha(json.dumps(verify_instance(inst, 40, P=bad), sort_keys=True)) == digest


def test_series_from_the_packed_form_pinned():
    # relation_residual and bracket read a packed series back through
    # unpack into a QExpansion
    inst = RelationInstance(4, 5, 2, 1, (1, 2), (3, 3))
    residual = relation_residual(inst, 40, alpha=coeff_alpha(2, 1) + 1)
    assert sha(residual.to_json()) == \
        "4938f5f2323f6368621f45d2964a285433196fe9c963e96fcfdd1bfc1df47ef0"
    assert sha(bracket(HomPoly(2, [1, 2, 3]), (1, 2), (3, 1), 4, 30).to_json()) == \
        "4a59b0c55afec1dcbd3213e6a5d377a09904b73ec3021abaaa1e813ebcec7e6c"


def test_wide_residual_pinned():
    # the alpha+1 residual of this instance is nonzero from exponent 0 and
    # needs 10-byte limbs; the report and the residual read back through
    # unpack are pinned
    inst = RelationInstance(4, 8, 3, 3, (1, 2), (3, 3))
    alpha = coeff_alpha(inst.k1, inst.k2) + 1
    report = verify_instance(inst, 100, alpha=alpha)
    assert report["first_nonzero_exponent"] == 0
    assert sha(json.dumps(report, sort_keys=True)) == \
        "83ef776ad63fc3f96a5bfaa9b872097a13ff922ce8374ef8cd04779e0676f414"
    assert sha(relation_residual(inst, 100, alpha=alpha).to_json()) == \
        "d96db21809060b35695e737258aef2d8e25103a6a370ff2e99dd22abbd5ab070"
