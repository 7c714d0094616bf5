"""The lazy package and the import footprint of each command.

`import smpverify` loads no submodule; each public name resolves to the
object its home module defines.  The footprint tests run the command line
in a fresh interpreter and read `sys.modules` afterwards (never timings).
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smpverify

SRC = str(Path(__file__).resolve().parents[1] / "src")
README_CERTIFY = ["certify", "--family", "main", "--c", "11/10", "--mu", "5/4"]

# Every public name the package exported when its __init__ imported all of
# its submodules, by home module.
EXPORTS = {
    "scalar": ["BackendMismatchError", "FloatKappa", "KappaContext", "Scalar", "parse_scalar"],
    "matrix2": [
        "EigenvectorError", "Mat2", "SingularMatrixError", "Vec2",
        "eigenvector_unit_first", "quarter_turn", "similarity", "spectral_radius",
    ],
    "words": [
        "BoundsRow", "BoxNorm", "Word", "bounds_table", "cyclic_normal_form",
        "evaluate", "factor_counts", "necklaces", "rho_bar_n", "rho_n",
    ],
    "permutability": [
        "ReducibleSetError", "TauMap", "friedland_5tuple", "friedland_permutable",
        "is_irreducible", "swap_partner", "tau_word", "verify_tau",
    ],
    "families": [
        "DISTINGUISHED_PHI", "MatrixSet", "NormalizedSet", "custom_set",
        "eigenvectors_from_products", "eigenvectors_vw", "example_alt",
        "example_main", "example_main_special", "normalize", "swap_pair",
    ],
    "polytope": [
        "Certificate", "ImagePoints", "Polygon", "admissible_mu_interval",
        "build_polygon", "certify_smp", "convexity_check",
        "empirical_mu_thresholds", "images", "kappa_max", "mu_thresholds",
        "omega_thresholds", "polygon_gauge", "sector_coords", "triangle_h",
        "verify_inclusions", "vertex_order_check",
    ],
    "figures": ["FigureSpec", "render", "render_string"],
}
NAMES = [(mod, name) for mod, names in EXPORTS.items() for name in names]


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestLazyPackage:
    @pytest.mark.parametrize("mod, name", NAMES, ids=[n for _, n in NAMES])
    def test_name_is_its_home_modules_object(self, mod, name):
        home = importlib.import_module(f"smpverify.{mod}")
        assert getattr(smpverify, name) is getattr(home, name)
        assert getattr(smpverify, mod) is home

    def test_dir_lists_every_name(self):
        listed = set(dir(smpverify))
        assert {name for _, name in NAMES} <= listed
        assert set(EXPORTS) | {"__version__"} <= listed

    def test_star_import_binds_every_name(self):
        scope: dict = {}
        exec("from smpverify import *", scope)
        assert {name for _, name in NAMES} | set(EXPORTS) <= set(scope)
        assert scope["Mat2"] is smpverify.matrix2.Mat2
        assert "__version__" not in scope

    def test_version(self):
        assert smpverify.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", ["no_such_name", "cli_main", "__wrapped__"])
    def test_unknown_name_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(smpverify, name)
        assert not hasattr(smpverify, name)

    def test_import_loads_no_submodule(self):
        proc = fresh(
            "import json, sys, smpverify\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('smpverify.'))))"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_first_access_loads_only_the_home_module(self):
        proc = fresh(
            "import json, sys, smpverify\n"
            "smpverify.KappaContext\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('smpverify.'))))"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["smpverify.scalar"]


# Runs cli.main in a fresh interpreter and prints, after the command's own
# output, one line: the JSON list of loaded modules.
RUN_AND_LIST = (
    "import json, sys\n"
    "from smpverify.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def loaded_after(*argv: str) -> set[str]:
    proc = fresh(RUN_AND_LIST, *argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestImportFootprint:
    def test_bounds_loads_neither_certificate_nor_dataclasses(self):
        loaded = loaded_after("bounds", "--c", "11/10", "--max-n", "3")
        assert "smpverify.words" in loaded
        unwanted = {
            "smpverify.polytope", "smpverify.permutability", "smpverify.figures",
            "smpverify.selftest", "dataclasses",
        }
        assert not unwanted & loaded

    def test_certify_loads_no_figure_writer_or_selftest(self):
        loaded = loaded_after(*README_CERTIFY)
        assert "smpverify.polytope" in loaded
        # words imports heapq inside the necklace group scan, which only
        # bounds runs.
        unwanted = {"smpverify.figures", "smpverify.selftest", "dataclasses", "heapq"}
        assert not unwanted & loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--family", "alt", "--kappa", "1.331", "--mu", "1.07"],
            ["scan", "--family", "alt"],
            ["permutable", "--family", "main", "--c", "11/10"],
        ],
    )
    def test_polygon_commands_load_no_dataclasses(self, argv):
        loaded = loaded_after(*argv)
        assert "smpverify.polytope" in loaded or "smpverify.permutability" in loaded
        assert not {"dataclasses", "inspect"} & loaded

    def test_bounds_with_polygon_norm_loads_the_polygon(self):
        loaded = loaded_after(
            "bounds", "--c", "11/10", "--max-n", "4", "--norm", "polygon", "--mu", "5/4"
        )
        assert "smpverify.polytope" in loaded
        assert "smpverify.figures" not in loaded

    def test_figure_runs(self, tmp_path):
        out = tmp_path / "polygon.svg"
        loaded = loaded_after("figure", *README_CERTIFY[1:], "--output", str(out))
        assert "smpverify.figures" in loaded
        assert "dataclasses" not in loaded
        assert out.read_text(encoding="utf-8").rstrip().endswith("</svg>")

    def test_selftest_runs(self):
        loaded = loaded_after("selftest")
        assert "smpverify.selftest" in loaded
        assert "dataclasses" not in loaded
