"""Golden files: the writer may get faster, its bytes may not move.

``write_table`` output for the four dataset generators (two seeds each)
under every page codec, single-page and multi-page, reduced to sha256
digests.  The digests were computed on 76e90f0, the parent of the
one-pass encode path, and must not move under a wall-only change to
``repro.format``; a declared model change (codec level, encoding
selector) re-pins them with the recipe in ``.claude/skills/verify/SKILL.md``
and says so in CHANGES.md.
"""

import hashlib

import pytest

from repro.format import write_table
from repro.format.pages import DEFAULT_PAGE_VALUES
from repro.workloads import lineitem_table, recipe_table, taxi_table, ukpp_table

#: dataset -> (generator, rows); four row groups per file, each of two or
#: three pages at ``page_values=256``.
DATASETS = {
    "lineitem": (lineitem_table, 2400),
    "taxi": (taxi_table, 2400),
    "recipe": (recipe_table, 1200),
    "ukpp": (ukpp_table, 2000),
}
SEEDS = (1, 7)
CODECS = ("zlib", "none", "snappy")
PAGE_VALUES = (DEFAULT_PAGE_VALUES, 256)


def file_digests(dataset: str, seed: int) -> dict[tuple[str, int], str]:
    """``(codec, page_values) -> sha256`` of one generated table's files."""
    generate, rows = DATASETS[dataset]
    table = generate(rows, seed=seed)
    return {
        (codec, page_values): hashlib.sha256(
            write_table(table, row_group_rows=rows // 4, codec=codec, page_values=page_values)
        ).hexdigest()
        for codec in CODECS
        for page_values in PAGE_VALUES
    }


#: (dataset, seed) -> (codec, page_values) -> sha256, on 76e90f0.
GOLDEN = {
    ('lineitem', 1): {
        ('zlib', 8192): "fe113e06c14e42ad52940ae1a243aea97238bc6a5097d7c2f7f2dedf0b1f9dd4",
        ('zlib', 256): "40addfcf8162f5170866e02bced7a0d0980e0b3ac98a7b58ecf52bba384d0571",
        ('none', 8192): "043bf66687972fae71d6bebfaf645764109ff2e660afe6f29cbaa15b4c056c7a",
        ('none', 256): "90eb1ca5f47249230752fa10528d25959367598f80867212ccb917d4bc830b99",
        ('snappy', 8192): "b704823d36cbbf1ff495d4e10be26edc70c3c19c8ed82893f1da405e7a539adc",
        ('snappy', 256): "e075310d7c3645b7dad2a2f7d0f48e2b4be5c4d3eb06734721ae358a2b6da1f8",
    },
    ('lineitem', 7): {
        ('zlib', 8192): "320b01797e006579f539a2c2552f533d0590d5e845001fa17faea3d4c3e324f7",
        ('zlib', 256): "edf1e574fbf41e66d3c64819c67a22d67d3567a406545d265e965a1651d210ce",
        ('none', 8192): "915c01544b8fcebabca917b14e19d06e2008edb0e49502b45aaec101281c9d47",
        ('none', 256): "b3fd0a074caea689577feed110e28c9cba216e6adaa0d449a2cbb6e6c8e309c2",
        ('snappy', 8192): "15a9fc73acf9090634fb0bd842ffad6e57055070d99a42f888b50f86d63a8908",
        ('snappy', 256): "c9f0e008b5e4d14f1790287a753bb00647a4d404fd65571b1305e540e87eabb9",
    },
    ('taxi', 1): {
        ('zlib', 8192): "3db36c1ba0e3dc645ee74eea2da5d7d061d872a618257acd27891b43e853ad39",
        ('zlib', 256): "34eba6cf099db267f17884324662ad4afe83112ebe1a113b2ac6e70dd75f53fd",
        ('none', 8192): "711184b7bcbeb7692889cd4ce0f2de1730d5f945f0d0a07d8e2f07839b68732b",
        ('none', 256): "1e9325dc39a6cafe805252f26702f0693a1001f01f4ae355a044cd8e84537a53",
        ('snappy', 8192): "c359b18816d3eb1a9459f57279966fb66ea9b60fdec2108ea1abb4799130fb92",
        ('snappy', 256): "97b7035a8d708eaa1ac0a97086b27fe43045e5e1478d3d039ca6412637224c72",
    },
    ('taxi', 7): {
        ('zlib', 8192): "7c6f77d9e2dbe302fb0dd723debce7080e8352a9b5d0ca9b224b87b499ba171b",
        ('zlib', 256): "0465509b3e58eadafc93459275a866125926352f35216511a59bb5919c099205",
        ('none', 8192): "f00f23cf95ca0763b8be0d030f595187b097db33f62b65f3d4eb3b8cd9069465",
        ('none', 256): "a6575f2711fea638d1f30a76dc0ec953a5e806d9ae2eaf3eeac0d87ca0dfea37",
        ('snappy', 8192): "8fc4bdbac7f323ab24008aee1973204735bde0694a64ca2b4c9b2e1fe7a3e0bf",
        ('snappy', 256): "09a32bb72d22c46fa26f9cb6e92cd1c311c0bbfa7d943dd61bd5f0ad98185b8c",
    },
    ('recipe', 1): {
        ('zlib', 8192): "9a67bf33a707cd5588cae02c0d4c3cc94d072dd68797d930a8eae321f0b8596c",
        ('zlib', 256): "d40033056a53e73846e5c2ab68f02022deb8669066486dc2e58abfdc86722a55",
        ('none', 8192): "71c5e55688b7d708c0d403cd9c302bb55e57f4454cef753b07018020f1cd523f",
        ('none', 256): "c066b522bbe3c04d4a5b9e78b36d2c009ef8577480a59f077c3940532243d2c2",
        ('snappy', 8192): "e67bcc7ed99ff85ef22161542999310250357f797c35f2e7fa306f9520794cee",
        ('snappy', 256): "0b5d8ab3be7e79fa7019d8251be2408bb2105b1eb4b9dfe02b4f7ee373f7a378",
    },
    ('recipe', 7): {
        ('zlib', 8192): "98dbcdc33c04668f3a061e403f0dd4e47295898830a471e62c6cccf51e23fdf7",
        ('zlib', 256): "ad88ffd9d571b7d65eaacf2d071fe7ace21c2547091438975da3ef9bbc107315",
        ('none', 8192): "9f41e596d91ee252a72fb6d6ad5aabec94ac13d592712d52b2c16a9ebdaa7601",
        ('none', 256): "b28e193645b90accffd13996704d40089915327deaa2c0250484f1f6d4324a93",
        ('snappy', 8192): "591a1094b8b3d3c61fd1b382bd7774e10001501843a62f276302fddb5754597e",
        ('snappy', 256): "70da8fbf73f422c1dbdb26c923f064dab3914f3b516fde09997ba2d838c22fff",
    },
    ('ukpp', 1): {
        ('zlib', 8192): "4690a02d84f12775256080bc23214f1dc39897c002b3482c8eaf37392b25359a",
        ('zlib', 256): "0c485206a3bc050c89bba64f3b94fe0671f1a4e41407d3e2a4ac449e4a370e61",
        ('none', 8192): "7d418e9107b117f423931a41b9ad446198e6f87202afce5bbd58db3788e95b44",
        ('none', 256): "9d6870afdafbf2b474566aa9f2a82b390403c9a135f7b62ce0766edabe9b12e0",
        ('snappy', 8192): "4de5201fe042015bb2774122f6db95b0b5cf5475bc4e92f57dc1905619f4c84d",
        ('snappy', 256): "29d43f8c9a401139e3030cfb94392e711e19a0acc2c5d80cb6ba3da0be13a174",
    },
    ('ukpp', 7): {
        ('zlib', 8192): "c693a7cf4b8974e4e72a0b726dfc81e15bc952648020928a1b1374d431294262",
        ('zlib', 256): "8957d1a04b857b4bb4a7734a221083ce6b8810f498ffddb777e83f8e587f9ba3",
        ('none', 8192): "df81ff113cf9310f8827716a56faba342b97c9ede93435771456ede7029cf30a",
        ('none', 256): "9766a6f5add168ba308d809cbd90675e4825aaad1b721517ba62bb1ff2e52fd4",
        ('snappy', 8192): "32ed9489fa0e1c13492aa9f7a0a372f09d9bd0bbd25ff06d6f36f961ed2a503a",
        ('snappy', 256): "5cae9529dc786c4479b371364c9e36aa786dbb9f72d26c36e00883cf093385d3",
    },
}


@pytest.mark.parametrize("dataset,seed", sorted(GOLDEN))
def test_write_table_bytes_are_pinned(dataset, seed):
    assert file_digests(dataset, seed) == GOLDEN[(dataset, seed)]


def test_every_dataset_and_seed_is_pinned():
    assert set(GOLDEN) == {(d, s) for d in DATASETS for s in SEEDS}
    assert all(len(v) == len(CODECS) * len(PAGE_VALUES) for v in GOLDEN.values())
