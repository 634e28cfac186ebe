"""Byte identity of atlas JSON and SVG against pinned digests.

The digests were taken before the exact kernel was rewritten over
integers; those of ``arithmetic-24`` before the wall tree read its
endpoint stars from the atlas and the viewport map went to integers;
those of ``negative-12`` and ``nonarith-sqrt2-8`` (the sizes the benchmark
builds) before triples were enumerated by partner and each star germ was
walked once; those of ``arithmetic-40`` and ``positive-12`` (the other
benchmark sizes) before each wall was keyed once and the SVG was written
as text instead of through ElementTree; those of ``arithmetic-1`` and
``arithmetic-2`` (the smallest trees, whose leaves sit at half-integer
columns) before the wall tree was laid out in integer 1/40 units and keyed
its vertices by star index, and triangle corners were computed once per
triangle; those of ``negative-1`` (a full 2 x 2 panel grid) and
``negative-3`` (a partial last row) before the negative panels were laid
out in integer quarter units and the viewport map set up once per scene.
A change to the kernel, the atlas builders or the renderer that alters a
single byte of the canonical JSON (chamber order, gluing order, coordinate
text, singularity ids) or of the SVG fails here, even when the atlas still
round-trips and passes `check_atlas`.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from isoleaf.leaf_atlas import (
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
)
from isoleaf.period_algebra import GroundField
from isoleaf.render import render_atlas

GOLDEN = {
    "arithmetic-1": (
        lambda: build_arithmetic(1),
        "a3b3c95d9ef0c52cca415941856304b4b51f83d04c3d7d5bb49c8b7e958a0efc",
        "2f67325e7b027b85785be9b04fe396e9e9202b18b8bd87027c5f6546a74ff7f9",
    ),
    "arithmetic-2": (
        lambda: build_arithmetic(2),
        "8cdb6388e92163cd11d38026c5b1827e6e5a0674cfb991f9c27231bec49bb6ca",
        "4b608b6a936ea8edd888ae76371d0fb1177439b7bb08fb5dbb09b12668b96bf9",
    ),
    "arithmetic-12": (
        lambda: build_arithmetic(12),
        "a4256833ae08d133e28a3459205c98c5e6c96f51f306386900346ab1c52a226f",
        "6b764c89edc13c282ae13047725f8a73df8068c1be195d29f30f46e2585d1546",
    ),
    "arithmetic-24": (
        lambda: build_arithmetic(24),
        "fdb7011ca4b5dc271d16cbfe36095bfd36d39f7fbada60cdd060db86281a74fe",
        "98fea57cfa55b3cb2c3060c40d14b7a0af22a16891e1a3c0687c53db37d38f82",
    ),
    "arithmetic-40": (
        lambda: build_arithmetic(40),
        "eafa9b2c8b7a4e34ea39d52cddf12d9f429ef2413614cbb0099f573c86d8a7a4",
        "cbd02649390c9e7d6b62af96977a6862a3ec48feb8f694dd17b69d640f43b065",
    ),
    "negative-1": (
        lambda: build_negative(1),
        "c309d0450db5a56ef55b286e23c053de0a259018134ed8731c8266a9c3659c4a",
        "d021630d9c5274ec3ed35693c8a4ef699e5094ec3924ca02d34f40a3fe4cefec",
    ),
    "negative-3": (
        lambda: build_negative(3),
        "d1396996044cd87c804a3ceab9347fe898e809fbb71a583909bc7e02771bd0df",
        "af96628a5da405ca069cbde8005d9314a3b396f9901315cf5d1e0f94d59647e1",
    ),
    "negative-6": (
        lambda: build_negative(6),
        "781ba5581cb1a6a690ce1b4a27b6ac8617661b28b205d010fb8f78d1895cdd0b",
        "38aa01d307aa4ad3e7d4324d4ea225c7ea66d4333fb80df1056375342342f5ec",
    ),
    "negative-12": (
        lambda: build_negative(12),
        "6aa5fff75d20487d8563d51495e5543c4e855a202553cb21d55f3cdb62b360ad",
        "c6a7abf22cb6574ec8543b19ae8934c301941eb2d99407f215b3d953f4a98cfc",
    ),
    "positive-6": (
        lambda: build_positive(6),
        "44d13f375d0ed4e65b805b88cfdcc7b55070328c93d900f85f6c9a02247d9a08",
        "932d2b990709ca770abfcb64d2f3d5675677a361a497a71c97baa9c26b6cc8da",
    ),
    "positive-12": (
        lambda: build_positive(12),
        "35169292d01b19ab9a1abca3b670ddadb5295637669528f073de37848d4740a2",
        "94b972fe4c739c4c003eae408c3cacd5cc05faf53ee2a0b50603e5fdce8247c7",
    ),
    "nonarith-sqrt2-6": (
        lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 6),
        "fd73a7801f6d723c397444131ac92418e6a257b21c9044bc0dde5c16c556ff28",
        "15aaa4c6fc6210febc95bef00cb7f1f45457427e2bc44c9eec66a70999b2e1e0",
    ),
    "nonarith-sqrt2-8": (
        lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 8),
        "13487fa3ecf8ba7b064414e87d0a5b98ca7897d4f68644ae1b84269751ebc648",
        "bad6771266b3c6f4b113c8c41a7bfd57d67f873325bf2e4625636e74744c3f26",
    ),
    "nonarith-golden-6": (
        lambda: build_nonarith(
            GroundField.quadratic(5).element(Fraction(1, 2), Fraction(1, 2)), 6
        ),
        "c7a606178ec7646a8fcee5e1c340a141a0f4b4293ec6dbfaafa1764a3aeb5a28",
        "7d22d1c9faccacdcec5f0b3d091e165c753f9a0926d5916fd00b2d44fc1d06b5",
    ),
}


def _canonical(atlas) -> str:
    # the text `isoleaf atlas build` writes
    return json.dumps(atlas_to_json_dict(atlas), sort_keys=True, indent=2) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_atlas_json_and_svg_are_byte_identical(name):
    build, json_digest, svg_digest = GOLDEN[name]
    atlas = build()
    text = _canonical(atlas)
    assert _sha(text) == json_digest
    assert _sha(render_atlas(atlas)) == svg_digest
    # loading the canonical text and dumping again gives the same bytes
    again = atlas_from_json_dict(json.loads(text))
    assert _canonical(again) == text
