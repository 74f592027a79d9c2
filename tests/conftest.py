"""Shared session fixtures: the polytope corpus and the torus modules."""

from __future__ import annotations

import pytest

from corpus import load_torus_spec, standard_corpus
from hlmod import build_pkt_module, volume_polynomial
from hlmod import torus
from torus_oracles import dense_k4_spec


@pytest.fixture(scope="session")
def corpus():
    """name -> (polytope, volume polynomial, module) for the whole corpus."""
    out = {}
    for p in standard_corpus():
        nu = volume_polynomial(p)
        out[p.name] = (p, nu, build_pkt_module(p, nu))
    return out


@pytest.fixture(scope="session")
def sq_module(corpus):
    return corpus["square"][2]


@pytest.fixture(scope="session")
def sq_nu(corpus):
    return corpus["square"][1]


@pytest.fixture(scope="session")
def c3_module(corpus):
    return corpus["cube3"][2]


@pytest.fixture(scope="session")
def c4_module(corpus):
    return corpus["cube4"][2]


@pytest.fixture(scope="session")
def segment_module(corpus):
    return corpus["segment"][2]


@pytest.fixture(scope="session")
def t1_module():
    return torus.build_torus_module(load_torus_spec("torus1"))


@pytest.fixture(scope="session")
def t2_module():
    return torus.build_torus_module(load_torus_spec("torus2"))


@pytest.fixture(scope="session")
def t3_module():
    return torus.build_torus_module(load_torus_spec("torus3"))


@pytest.fixture(scope="session")
def t4_dense_module():
    return torus.build_torus_module(dense_k4_spec())


@pytest.fixture(scope="session")
def t2_identity_module():
    from fractions import Fraction

    from hlmod.exact import Matrix

    spec = torus.TorusSpec(2, (Matrix.identity(2),), (Fraction(1),))
    return torus.build_torus_module(spec)
