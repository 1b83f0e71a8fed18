"""The component keys of the mono and epi pools against element counts.

``xclass._image`` keys an injective map by its sorted image elements and
``xclass._kernel_elements`` a surjective one by its kernel elements, both
deciding injective / onto by one image count (``modules.image_order``).  The
pool differential tests share these keys with the code they check, so here
every map of every Hom set between small modules is decoded into a
``ModuleMap`` and its image and kernel are read off by applying it to every
element of the source.
"""
from __future__ import annotations

import pytest

from homkit.exactalg import Zmod
from homkit.modules import hom_module
from homkit.xclass import _image, _kernel_elements, module_universe


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12, 36])
def test_pool_keys_match_element_counts(n):
    members = module_universe(Zmod(n), 8).members
    for a in members:
        elements = list(a.elements())
        for b in members:
            grp = hom_module(a, b)
            zero = b.reduce_element([0] * b.ngens)
            for elem, blocks in grp._scan():
                f = grp.decode(elem)
                values = [f.apply(x) for x in elements]
                image = set(values)
                injective = len(image) == len(elements)
                onto = len(image) == b.size()
                assert _image(a, b, blocks[0]) == \
                    (tuple(sorted(values)) if injective else None)
                assert _kernel_elements(a, b, blocks[0]) == \
                    (tuple(x for x, y in zip(elements, values) if y == zero) if onto else None)
