"""Tests of the instance generators."""

import functools
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    random_spanning_tree_graph,
    star_graph,
    torus_graph,
)
from repro.graphs import generators
from repro.graphs.generators import assign_weights
from repro.runner.registry import GRAPH_FAMILIES, build_graph


ALL_GENERATORS = [
    ("path", lambda: path_graph(9, seed=1), 9, 8),
    ("cycle", lambda: cycle_graph(9, seed=1), 9, 9),
    ("star", lambda: star_graph(9, seed=1), 9, 8),
    ("complete", lambda: complete_graph(9, seed=1), 9, 36),
    ("grid", lambda: grid_graph(3, 4, seed=1), 12, 17),
    ("torus", lambda: torus_graph(3, 4, seed=1), 12, 24),
    ("hypercube", lambda: hypercube_graph(4, seed=1), 16, 32),
    ("powerlaw", lambda: power_law_graph(20, attach=2, seed=1), 20, 36),
    ("caterpillar", lambda: caterpillar_graph(5, 2, seed=1), 15, 14),
    ("tree", lambda: random_spanning_tree_graph(20, seed=1), 20, 19),
]


class TestTopologies:
    @pytest.mark.parametrize("name,factory,n,m", ALL_GENERATORS, ids=[g[0] for g in ALL_GENERATORS])
    def test_shape_and_validity(self, name, factory, n, m):
        g = factory()
        g.validate()
        assert g.n == n
        assert g.m == m
        assert g.is_connected()

    def test_random_connected_graph_contains_spanning_tree(self):
        g = random_connected_graph(50, 0.0, seed=3)
        assert g.m == 49  # p=0 gives exactly the random spanning tree
        g2 = random_connected_graph(50, 0.2, seed=3)
        assert g2.m > 49
        assert g2.is_connected()

    def test_random_connected_graph_density_monotone(self):
        sparse = random_connected_graph(60, 0.02, seed=5)
        dense = random_connected_graph(60, 0.4, seed=5)
        assert dense.m > sparse.m

    def test_geometric_graph_connected_and_euclidean(self):
        g = random_geometric_graph(60, seed=7)
        g.validate()
        assert g.is_connected()
        # Euclidean weights live in (0, sqrt 2)
        assert all(0.0 < w <= np.sqrt(2) + 1e-9 for w in g.edge_w)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            star_graph(1)
        with pytest.raises(ValueError):
            torus_graph(2, 5)
        with pytest.raises(ValueError):
            random_connected_graph(10, 1.5)
        with pytest.raises(ValueError):
            grid_graph(0, 3)
        with pytest.raises(ValueError):
            hypercube_graph(0)
        with pytest.raises(ValueError):
            hypercube_graph(21)
        with pytest.raises(ValueError):
            power_law_graph(1)
        with pytest.raises(ValueError):
            power_law_graph(10, attach=0)

    def test_hypercube_is_regular(self):
        for dim in (1, 2, 3, 5):
            g = hypercube_graph(dim, seed=0)
            assert g.n == 2**dim
            assert g.m == dim * 2 ** (dim - 1)
            assert all(g.degree(v) == dim for v in range(g.n))

    def test_power_law_has_heavy_tail(self):
        g = power_law_graph(400, attach=2, seed=1)
        degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        # hubs: the max degree dwarfs the median (no bounded-degree family
        # in the zoo behaves like this)
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]
        # edge budget: star core + attach edges per later node
        assert g.m == 2 + 2 * (400 - 3)


class TestWeightsAndDeterminism:
    def test_distinct_mode_gives_distinct_weights(self):
        g = random_connected_graph(40, 0.1, seed=2, weight_mode="distinct")
        assert g.has_distinct_weights()

    def test_integer_mode_range(self):
        rng = np.random.default_rng(0)
        w = assign_weights(500, rng, "integer", weight_range=7)
        assert w.min() >= 1 and w.max() <= 7

    def test_uniform_mode(self):
        rng = np.random.default_rng(0)
        w = assign_weights(100, rng, "uniform")
        assert ((0 <= w) & (w < 1)).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            assign_weights(5, np.random.default_rng(0), "bogus")

    def test_same_seed_same_graph(self):
        a = random_connected_graph(40, 0.1, seed=9)
        b = random_connected_graph(40, 0.1, seed=9)
        assert a.edge_list() == b.edge_list()

    def test_different_seed_different_graph(self):
        a = random_connected_graph(40, 0.1, seed=9)
        b = random_connected_graph(40, 0.1, seed=10)
        assert a.edge_list() != b.edge_list()

    def test_shuffled_ports_preserve_structure(self):
        g = random_connected_graph(25, 0.1, seed=4, shuffle_ports=True)
        g.validate()
        h = random_connected_graph(25, 0.1, seed=4, shuffle_ports=False)
        # same edge multiset regardless of port shuffling
        assert sorted((u, v) for u, v, _ in g.edge_list()) == sorted(
            (u, v) for u, v, _ in h.edge_list()
        )


class TestFamilyRegistry:
    """Every registry family is buildable, connected and deterministic."""

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_family_builds_connected(self, family):
        g = build_graph(family, 20, seed=1)
        g.validate()
        assert g.is_connected()

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_family_deterministic(self, family):
        a = build_graph(family, 24, seed=5)
        b = build_graph(family, 24, seed=5)
        assert a.edge_list() == b.edge_list()

    def test_structured_families_round_the_requested_size(self):
        assert build_graph("hypercube", 30, seed=0).n == 32
        assert build_graph("grid", 20, seed=0).n == 16
        assert build_graph("torus", 20, seed=0).n == 16

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("moebius", 16, seed=0)


# ---------------------------------------------------------------------- #
# stream pin: every generator must keep drawing the same RNG stream
# ---------------------------------------------------------------------- #

#: sha256 over the int64/float64 bytes of (edge_u, edge_v, edge_w,
#: edge_port_u, edge_port_v), recorded with the generators that built the
#: G(n, p) pass on ``np.triu_indices`` and drew one port permutation
#: array per node; every key builds with ``seed = n + 1`` (``seed = 3``
#: for hypercube and torus)
STREAM_DIGESTS = {
    "random-1-0.0-distinct-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.0-distinct-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.0-integer-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.0-integer-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.0-uniform-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.0-uniform-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-distinct-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-distinct-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-integer-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-integer-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-uniform-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-0.04-uniform-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-distinct-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-distinct-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-integer-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-integer-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-uniform-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1-1.0-uniform-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-2-0.0-distinct-1": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-0.0-distinct-0": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-0.0-integer-1": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-0.0-integer-0": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-0.0-uniform-1": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-2-0.0-uniform-0": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-2-0.04-distinct-1": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-0.04-distinct-0": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-0.04-integer-1": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-0.04-integer-0": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-0.04-uniform-1": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-2-0.04-uniform-0": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-2-1.0-distinct-1": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-1.0-distinct-0": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "random-2-1.0-integer-1": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-1.0-integer-0": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "random-2-1.0-uniform-1": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-2-1.0-uniform-0": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "random-3-0.0-distinct-1": "13af0ccf22900955f44a7bdfd7cdbceea4f2d9d48e615eae12d2e6367d0d1d96",
    "random-3-0.0-distinct-0": "13af0ccf22900955f44a7bdfd7cdbceea4f2d9d48e615eae12d2e6367d0d1d96",
    "random-3-0.0-integer-1": "54b43badff1e3ce9942844dff3fa0f1366f3c14655cba58dc63aea3c96030264",
    "random-3-0.0-integer-0": "d6bda9140465ba545b7282a0185f80de0b53b64f2f53631337301eedc9a10f9b",
    "random-3-0.0-uniform-1": "585a60e248aa94508067458a4ba667b877e9a0dd64527545c1fcd3b2982ecaa1",
    "random-3-0.0-uniform-0": "585a60e248aa94508067458a4ba667b877e9a0dd64527545c1fcd3b2982ecaa1",
    "random-3-0.04-distinct-1": "13af0ccf22900955f44a7bdfd7cdbceea4f2d9d48e615eae12d2e6367d0d1d96",
    "random-3-0.04-distinct-0": "13af0ccf22900955f44a7bdfd7cdbceea4f2d9d48e615eae12d2e6367d0d1d96",
    "random-3-0.04-integer-1": "dedfefe1d89f7d2b0fd4dc6d20e948ac8e2eb4fb04ebe5872ce2ce3b15da021a",
    "random-3-0.04-integer-0": "dedfefe1d89f7d2b0fd4dc6d20e948ac8e2eb4fb04ebe5872ce2ce3b15da021a",
    "random-3-0.04-uniform-1": "e820e8a00b2a9e437ce5c8c352e4460bff62ef77f98ce38fefb1faaab4b2140f",
    "random-3-0.04-uniform-0": "e820e8a00b2a9e437ce5c8c352e4460bff62ef77f98ce38fefb1faaab4b2140f",
    "random-3-1.0-distinct-1": "eb826bd92de7e67d0ec8e281f5ea8c3abbdf31a6f71de14a1a30400a2140fe5f",
    "random-3-1.0-distinct-0": "257280b869d31d55b6fc59e954277bf641e0eb3be940b64088c833c20fb0e09e",
    "random-3-1.0-integer-1": "9bc5237dce1b77057614b1d4dbd9dbdcb182b83b37173b5f35f9b45def46c296",
    "random-3-1.0-integer-0": "2d10ca4eff44808bf0823e7a8efd95ef655932c3760e41a7347e62eb5747105b",
    "random-3-1.0-uniform-1": "e9231bcedc32c425c0a5b7723c64b1dc4d9366da97df567bc7191759ac061c9b",
    "random-3-1.0-uniform-0": "fbbaceb0674f61658d36fecc322fb9b62d31c6c2e6cda18558d2200036667911",
    "random-64-0.0-distinct-1": "47818ee1214276d5e3326f76ef2d45fc3d8454618218d0c2c20225a5cc382167",
    "random-64-0.0-distinct-0": "80fa60e2cf2699582a77f56a291a09a21b161b4976b60d7bc3a91615032fcd0b",
    "random-64-0.0-integer-1": "aaff4ed8e45e970197237787d2a563ff349da7e24a127d2e0fe3c28a00860e12",
    "random-64-0.0-integer-0": "ccde6e4859675ad1bad842153660d2268386da0143304d2b4eaaab2378ac9dcc",
    "random-64-0.0-uniform-1": "5d319b447d979f796ba4a5ca0cdf5989bdef442d379c253f0ae228d8a0e70b6b",
    "random-64-0.0-uniform-0": "813e8090dc85b51380f69f1d546d468cef06cdc4ab4efda432ce22697dec2761",
    "random-64-0.04-distinct-1": "50d815a9d20a556f6f1b2a935d88b92aa410224b7deb0bca2565f50356af2cff",
    "random-64-0.04-distinct-0": "01c1f2cc52cd3f3988f75ca12613739fb5a60e5826170ef680580396187a16c5",
    "random-64-0.04-integer-1": "4c77e3cc32b008121ae071a2f5b139a8f8da67d999a85e4821b85b5c02ef973d",
    "random-64-0.04-integer-0": "f70ffea312fe85d3a4ae38048a5600a9e26801c270b0518a275227e20ded997b",
    "random-64-0.04-uniform-1": "a39fd35a8f1238745e6e987c8ce598620018fe84be92fcde7648faac538f8469",
    "random-64-0.04-uniform-0": "3a2e11055fe578567af4bdfda8d45ae7833896855f1a1f3798ccd3332eb493c6",
    "random-64-1.0-distinct-1": "685586a82e02fc867ca345436e7b78e8b3d762e0ca952475d7d61af7add6b503",
    "random-64-1.0-distinct-0": "f935b63c1402118385ef4cd854f5a7463e14286d46911b6124a9318617995b0f",
    "random-64-1.0-integer-1": "1ca23ba2ed134cfcc0b1ff442d81e6bf2f9fbd3d5e48839d053c33dd4ae5bef3",
    "random-64-1.0-integer-0": "dfd085ea2aab205183c741097a29c8acd8c32e3dcee7088cdb6c0722c7e654ed",
    "random-64-1.0-uniform-1": "26837d15a0d2e4f549146f9bb156f996dfc8a1730066c8e128df4c4751542a0f",
    "random-64-1.0-uniform-0": "fb20450ab72f064f700920dba148e53b44d3edcedc425c12270e5d99f64df772",
    "random-1024-0.0-distinct-1": "384f2d8625eefb16fd6bac6615d2f1a75f1f32a8123e4e60d58ff85c41ca6419",
    "random-1024-0.0-distinct-0": "28105d7c12423cfb77eb041bed536b6974b9bcb3a2eb39261d350eaefacf16dc",
    "random-1024-0.0-integer-1": "bbce5a065b54fd18bf435b7e2530d970292d32eac9d05e25c2bcd2317cc7bf4e",
    "random-1024-0.0-integer-0": "ec33cc04c675239ef96039c605ee54f9827e8113f99c2f2fa04414976bb33e69",
    "random-1024-0.0-uniform-1": "f81bf12ace8a9e8f4d0f268bded53f7ba67c1c0802a08a38c0e7f7a73ee1b244",
    "random-1024-0.0-uniform-0": "a6cae8ec7a3e20d62104d46abca6dac3474d676963f6a1646f1f9b12d84cf64e",
    "random-1024-0.04-distinct-1": "d5b4a1b1b8167f0bcfe8a67b4b48d0ce8bf143c2f195e35238d3010def2afc76",
    "random-1024-0.04-distinct-0": "ac7c602dd5f164682409a4d8a40192d4926b9a46abd1ca34afdc10e1d42aa922",
    "random-1024-0.04-integer-1": "e3bfad31e7837e3d7a4f8f44ad90e3380d09a8156b56df8f6bdec01860985e35",
    "random-1024-0.04-integer-0": "c4254ea9c9796c1c0f8be741d5cbd1b9b964127d7b549ec0f9b589c6a53f96b3",
    "random-1024-0.04-uniform-1": "ea7db885a246d31346d582507fc3cf450520b024f50db1e9739c2dcd680d99f0",
    "random-1024-0.04-uniform-0": "c47ec5e7388e9054a0795a5e133dde18cb3f0a789de3acd87f6f83afc6fc84f1",
    "random-1024-1.0-distinct-1": "378a15cccca354b6eee239050f8cae30621fb0cd20595854830771683e26495d",
    "random-1024-1.0-distinct-0": "8a640b51bbeaa0c3a52904151327617bfdad749d543439739f000c7023917d1a",
    "random-1024-1.0-integer-1": "86c24681dcefda2f59aaf3db3e676702493eca0b9b92983ac3449a2cdcc4a6ec",
    "random-1024-1.0-integer-0": "75d03d5ff38e671e9b669ee44a3ad5866ca578144cbd40df019735196a2fb9c9",
    "random-1024-1.0-uniform-1": "cef645fd20e695eecafe094978bec67444960b5a1995594c05bee2e05cd9d71a",
    "random-1024-1.0-uniform-0": "9fc233ab4285f8a5c9ca736e069a43a8c99f63692e3b2189ff5036ebcd1ee254",
    "tree-1-distinct-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-1-distinct-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-1-integer-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-1-integer-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-1-uniform-1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-1-uniform-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tree-2-distinct-1": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "tree-2-distinct-0": "385dbb675e1130fce8bc883c7d8b952ee70fc5f0c14c0e62a505b0f0bbeb665a",
    "tree-2-integer-1": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "tree-2-integer-0": "478805dc10e5a85590753ae862f8995565ee0f1a7342262220cc9dc7ad4a95ad",
    "tree-2-uniform-1": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "tree-2-uniform-0": "e5f19d51f5a85f9496bb92aeffde195bc2628d89917f1bf2369620e460ea133c",
    "tree-97-distinct-1": "e6509d0547433e4925ebb65821484b8ed7ae079ebab6d92230314bbdef1e1d90",
    "tree-97-distinct-0": "a8a7da94dc33f26f9b65ee1f19e06c9a026afa06e39e3978e13990b801e1f124",
    "tree-97-integer-1": "f0e764fabe4c54340b2822759b87789b03684fe650eac55556e3680b4ebe4a7e",
    "tree-97-integer-0": "6c7bacbc14d8c8fddc1e80456f3154bff4df0cb1e3e593682226a38472906410",
    "tree-97-uniform-1": "152606425e795669e02464054da6254e877c19854e57a361db4c90524bd8a386",
    "tree-97-uniform-0": "66133bab750947e97457bccc8aec40526add07e31d22c30ed4f091f935ef5aa2",
    "hypercube-5-1": "68655133ab917ce691c402eb37d10f229eb00c03beec256f5d492e53a5a55359",
    "torus-5x7-1": "101054a1bb83bdd5c09ea09faeedb30e2bb1b9e9877a703b8f18a834b1c4f930",
    "hypercube-5-0": "19b0f98a57162206e0f7e763fe654970e1cd6e75ae3b19931f5904f729218a12",
    "torus-5x7-0": "8db03f6c2d212a604004c45e851c709dff5d7d092531438335743e2fa366c0ff",
    "geometric-2-euclidean-1": "39efb266e0aad24a40c007bd1c15989f7d989ed078a6bbaa7ac5e4c7052d61f1",
    "geometric-60-euclidean-1": "02976886c9ba4d1e2f5f2aea5f0937fbe936711c185a3b5adf7307262f5f5b20",
    "geometric-60-distinct-0": "71b7d80714d9380ba26e46757bfcc132eed7cc788c91b5189affa67972468625",
    "geometric-300-euclidean-1": "a69fd1e9e25c6fde01366f4697bb4b565d5f6d7f8131530e4ce1af5ef94b9b57",
}

#: random_connected_graph(301, 0.05, seed=9): 45150 pair draws, so small
#: chunk constants split rows across chunks
CHUNKED_DIGEST = "6bcfbcca44354a40080ecb8dd9a0952a21dd2d54b0878e4533c22d77b6cba76b"


def _graph_digest(g):
    h = hashlib.sha256()
    for array, dtype in (
        (g.edge_u, np.int64),
        (g.edge_v, np.int64),
        (g.edge_w, np.float64),
        (g.edge_port_u, np.int64),
        (g.edge_port_v, np.int64),
    ):
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


def _pinned_factories():
    cases = {}
    for shuffle in (True, False):
        for mode in ("distinct", "integer", "uniform"):
            for n in (1, 2, 3, 64, 1024):
                for p in (0.0, 0.04, 1.0):
                    cases[f"random-{n}-{p}-{mode}-{int(shuffle)}"] = functools.partial(
                        random_connected_graph, n, p, seed=n + 1,
                        weight_mode=mode, shuffle_ports=shuffle,
                    )
            for n in (1, 2, 97):
                cases[f"tree-{n}-{mode}-{int(shuffle)}"] = functools.partial(
                    random_spanning_tree_graph, n, seed=n + 1,
                    weight_mode=mode, shuffle_ports=shuffle,
                )
        cases[f"hypercube-5-{int(shuffle)}"] = functools.partial(
            hypercube_graph, 5, seed=3, shuffle_ports=shuffle
        )
        cases[f"torus-5x7-{int(shuffle)}"] = functools.partial(
            torus_graph, 5, 7, seed=3, shuffle_ports=shuffle
        )
    for n, mode, shuffle in ((2, "euclidean", True), (60, "euclidean", True),
                             (60, "distinct", False), (300, "euclidean", True)):
        cases[f"geometric-{n}-{mode}-{int(shuffle)}"] = functools.partial(
            random_geometric_graph, n, seed=n + 1, weight_mode=mode, shuffle_ports=shuffle
        )
    return cases


PINNED = _pinned_factories()


class TestStreamPin:
    def test_every_digest_has_a_case(self):
        assert sorted(PINNED) == sorted(STREAM_DIGESTS)

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_generator_output_is_pinned(self, key):
        assert _graph_digest(PINNED[key]()) == STREAM_DIGESTS[key]

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 300])
    def test_chunk_boundaries_do_not_move_the_stream(self, monkeypatch, chunk):
        monkeypatch.setattr(generators, "_PAIR_CHUNK", chunk)
        assert _graph_digest(random_connected_graph(301, 0.05, seed=9)) == CHUNKED_DIGEST


class TestGeneratorMemory:
    def test_random_16384_builds_under_1gib_address_space(self):
        pytest.importorskip("resource")
        # the limit is set in the child after its imports, so it bounds
        # what building the graph maps, not the interpreter and NumPy
        code = textwrap.dedent(
            """
            import resource
            from repro.runner.registry import build_graph
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            g = build_graph("random", 16384, 3, 0.0005)
            print(g.n, g.m)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["16384", "83506"]
