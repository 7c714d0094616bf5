"""The tolerance policy: one fixed default, passed explicitly, never
applied on the exact backend."""

import importlib
import inspect
from fractions import Fraction

import pytest

from smpverify import KappaContext, certify_smp, example_main_special
from smpverify.cli import build_parser, main
from smpverify.scalar import REL_TOL

MODULES = (
    "scalar", "matrix2", "words", "permutability", "families", "polytope",
    "figures", "cli", "selftest",
)


def public_callables():
    """(qualified name, callable) for every public function of the package
    and every public method of its public classes."""
    for module_name in MODULES:
        module = importlib.import_module(f"smpverify.{module_name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for member_name, member in inspect.getmembers(obj):
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) or inspect.ismethod(member):
                        yield f"{module_name}.{name}.{member_name}", member
            elif callable(obj):
                yield f"{module_name}.{name}", obj


def test_every_rel_tol_defaults_to_the_one_constant():
    with_rel_tol = []
    for qualname, fn in public_callables():
        params = inspect.signature(fn).parameters
        assert "tie_rel_tol" not in params, qualname
        if "rel_tol" in params:
            assert params["rel_tol"].default is REL_TOL, qualname
            with_rel_tol.append(qualname)
    # The scan reaches the comparison primitives and the certificate steps.
    for expected in (
        "scalar.Scalar.isclose", "matrix2.Mat2.isclose", "families.normalize",
        "permutability.verify_tau", "permutability.is_irreducible",
        "polytope.certify_smp", "polytope.Polygon.matrix_norm",
    ):
        assert expected in with_rel_tol


def test_no_process_wide_tolerance_setting():
    scalar = importlib.import_module("smpverify.scalar")
    assert REL_TOL == 1e-12
    assert not hasattr(scalar, "set_default_tolerance")
    assert not hasattr(scalar, "default_tolerance")


@pytest.mark.parametrize("mu", ["5/4", "34/25", "6/5"])
def test_exact_certificate_ignores_the_tolerance(mu):
    mset = example_main_special(KappaContext(Fraction(11, 10)))
    mu = Fraction(mu)
    default = certify_smp(mset, mu, rel_tol=REL_TOL).as_kv()
    assert certify_smp(mset, mu, rel_tol=0.5).as_kv() == default


def test_certify_tol_defaults_to_the_constant():
    args = build_parser().parse_args(["certify", "--kappa", "1.331", "--mu", "1.25"])
    assert args.tol is REL_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "alt", "--kappa", "1.331", "--mu", "1.07"],
        ["--family", "main", "--kappa", "1.331", "--mu", "1.25"],
    ],
)
def test_certify_without_tol_matches_the_default_tol(capsys, argv):
    runs = []
    for extra in ([], ["--tol", "1e-12"]):
        code = main(["certify", *argv, "--kv", *extra])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
