"""Relation lattices are read in one place: ``integer_kernel`` is called
only by ``modules._kernel_generators`` (the kernel lattice of a map) and
``modules._sublattice_module`` (the relations among generators of a
submodule, or of a subquotient such as homology), and
``normalize_presentation`` only inside ``modules``, so a second copy of
either construction does not creep back into another layer."""
from __future__ import annotations

from pathlib import Path

from .test_echelon_sites import call_sites

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"


def test_integer_kernel_is_called_by_the_two_lattice_builders():
    assert call_sites(sorted(SRC.glob("*.py")), "integer_kernel") == \
        ["modules.py:_kernel_generators", "modules.py:_sublattice_module"]


def test_normalize_presentation_is_called_only_inside_modules():
    sites = call_sites(sorted(SRC.glob("*.py")), "normalize_presentation")
    assert sites and {site.split(":")[0] for site in sites} == {"modules.py"}


def test_the_scan_sees_a_second_call_site(tmp_path):
    path = tmp_path / "complexes.py"
    path.write_text((SRC / "complexes.py").read_text() + (
        "\n\ndef _homology_by_hand(a, ring):\n"
        "    rels = integer_kernel(a)\n"
        "    return normalize_presentation(ring, a.cols, rels)\n"))
    assert call_sites([path], "integer_kernel") == ["complexes.py:_homology_by_hand"]
    assert call_sites([path], "normalize_presentation") == ["complexes.py:_homology_by_hand"]
