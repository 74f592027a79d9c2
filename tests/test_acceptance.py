"""Acceptance gate: one test per criterion, printing one line per verdict.

Everything here asserts exact equalities or exact sign conditions; the only
tolerances are the two wall-clock budgets, which are part of the criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from corpus import load_torus_spec, standard_corpus
from hlmod.cli import main as cli_main
from hlmod.descent import descent, koszul_complex, purity_check, quotient_descent, repeated_descent
from hlmod.exact import GaussianRational, Matrix, MultiPoly, hermitian_pd
from hlmod.hodge_lefschetz import (
    HLModule,
    lefschetz_property,
    polarization_check,
    sample_cone_element,
    sample_cone_tuple,
    sl2_complete,
    validate_structure,
)
from hlmod.mixed import (
    kernel_weight_bound,
    mixed_decomposition_check,
    mixed_hlt_check,
    mixed_hrr_check,
)
from hlmod.polytopes import (
    PolytopeError,
    af_check,
    build_polytope,
    build_pkt_module,
    h_vector,
    mixed_volume,
    volume_oracle,
    volume_polynomial,
)
from hlmod.torus import exterior_monomials
from matrix_edits import with_entries
from torus_oracles import conjugate_vector, form_value
from volume_polys import octahedron_data

F = Fraction
I = GaussianRational(0, 1)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_fixture_construction():
    start = time.monotonic()
    corpus = standard_corpus()
    assert len(corpus) == 10
    ok = True
    for p in corpus:
        nu = volume_polynomial(p)
        module = build_pkt_module(p, nu)
        ok = ok and validate_structure(module).passed
        ok = ok and lefschetz_property(module, module.reference)
        ok = ok and polarization_check(module, module.reference).passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(f"criterion-1 fixture-construction ({elapsed:.2f}s)", ok)


def test_criterion_02_h_vectors(corpus):
    expected = {
        "square": (1, 2, 1),
        "triangle": (1, 1, 1),
        "cube3": (1, 3, 3, 1),
        "simplex3": (1, 1, 1, 1),
        "cube4": (1, 4, 6, 4, 1),
    }
    faces = {
        "segment": (2,),
        "triangle": (3, 3),
        "square": (4, 4),
        "simplex3": (4, 6, 4),
        "cube3": (8, 12, 6),
        "cube4": (16, 32, 24, 8),
        "prism": (6, 9, 5),
        "square-perturbed": (4, 4),
        "cube3-perturbed": (8, 12, 6),
        "prism-perturbed": (6, 9, 5),
    }
    ok = True
    for name, h_expected in expected.items():
        ok = ok and h_vector(corpus[name][2]) == h_expected
    for name, (p, _, module) in corpus.items():
        h = h_vector(module)  # raises if not symmetric or not unimodal
        all_faces = list(faces[name]) + [1]
        for t in range(p.dim + 2):
            transform = sum(f_i * (t - 1) ** i for i, f_i in enumerate(all_faces))
            ok = ok and sum(h[j] * t**j for j in range(p.dim + 1)) == transform
    _verdict("criterion-2 h-vectors", ok)


def test_criterion_03_volume_polynomials(corpus):
    ok = True
    rng = random.Random(90125)
    for name, (p, nu, _) in corpus.items():
        done = 0
        scale = F(1, 8)
        while done < 20:
            x = [s + F(rng.randint(-8, 8), 64) * scale for s in p.support]
            try:
                expected = volume_oracle(p, x)
            except PolytopeError:
                scale /= 2
                continue
            ok = ok and nu.evaluate(x) == expected
            done += 1
    sq = corpus["square"][1].poly
    ok = ok and sq == MultiPoly(
        4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}
    )
    tr = corpus["triangle"][1].poly
    ok = ok and tr == MultiPoly(
        3,
        {
            (2, 0, 0): F(1, 2),
            (0, 2, 0): F(1, 2),
            (0, 0, 2): F(1, 2),
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
        },
    )
    _verdict("criterion-3 volume-polynomials", ok)


def test_criterion_04_mixed_theorems(corpus):
    start = time.monotonic()
    rng = random.Random(41)
    ok = True
    for name, (_, _, module) in corpus.items():
        k = module.weight
        tuples_by_length = {
            t: [sample_cone_tuple(module, rng, t) for _ in range(25)]
            for t in range(1, k + 1)
        }
        for t, tuples in tuples_by_length.items():
            for entries in tuples:
                ok = ok and mixed_hlt_check(module, entries, require_cone=False).passed
                ok = ok and kernel_weight_bound(module, entries, require_cone=False).passed
                if t + 1 <= k:
                    ok = (
                        ok
                        and mixed_decomposition_check(
                            module, entries, require_cone=False
                        ).passed
                    )
                    ok = ok and mixed_hrr_check(module, entries, require_cone=False).passed
        assert ok, name
    worked = mixed_hlt_check(
        corpus["square"][2],
        [{"d1": 1, "d2": 1, "d3": 1, "d4": 1}, {"d1": 2, "d2": 2, "d3": 1, "d4": 1}],
    )
    ok = ok and worked.passed and worked.data["determinant"] == "12"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(f"criterion-4 mixed-theorems ({elapsed:.2f}s)", ok)


def test_criterion_05_descent(corpus):
    ok = True
    for name, (_, _, module) in corpus.items():
        res = descent(module, module.reference)
        new = res.module
        ok = ok and new.weight == module.weight - 1
        ok = ok and validate_structure(new).passed
        if new.dim:
            ok = ok and lefschetz_property(new, new.reference)
            ok = ok and polarization_check(new, new.reference).passed
        if module.weight >= 2:
            direct = repeated_descent(module, [module.reference] * 2)
            twice = descent(res.module, res.module.reference)
            ok = (
                ok
                and direct.module.space.grade_dims()
                == twice.module.space.grade_dims()
            )
            qd = quotient_descent(module, module.reference, 2)
            ok = ok and qd.module.space.grade_dims() == qd.image.module.space.grade_dims()
            ok = ok and (qd.module.dim == 0 or qd.isomorphism.det() != 0)
    sq_descent = descent(corpus["square"][2], corpus["square"][2].reference)
    ok = ok and sq_descent.module.space.grade_dims() == {-1: 1, 1: 1}
    _verdict("criterion-5 descent", ok)


def test_criterion_06_purity(corpus):
    start = time.monotonic()
    rng = random.Random(53)
    ok = True
    for name, (_, _, module) in corpus.items():
        for length in (1, 2, 3):
            for _ in range(10):
                entries = sample_cone_tuple(module, rng, length)
                kc = koszul_complex(module, entries, require_cone=False)
                rep = purity_check(kc)
                ok = ok and rep.passed
                for key, dim in rep.data["graded-dims"].items():
                    level = int(key.split("l=")[1])
                    ok = ok and (level <= 0 or dim == 0)
        assert ok, name
    elapsed = time.monotonic() - start
    _verdict(f"criterion-6 koszul-purity ({elapsed:.2f}s)", ok)


def test_criterion_07_torus_calibration(t1_module, t2_identity_module, t2_module, t3_module):
    ok = True
    mons1 = exterior_monomials(1)
    e1 = [F(0)] * 4
    e1[mons1.index((0,))] = F(1)
    ok = ok and I * form_value(t1_module, e1, conjugate_vector(t1_module, e1)) == 1

    mons2 = exterior_monomials(2)
    delta = [F(0)] * 16
    delta[mons2.index((0, 1))] = I
    delta[mons2.index((2, 3))] = -I
    from hlmod.exact import as_fraction

    stored = as_fraction(form_value(t2_identity_module, delta, delta))
    ok = ok and stored == 2  # corrected sign positive
    raw = -stored  # undo the degree-2 twist
    ok = ok and raw < 0

    rng = random.Random(61)
    for module in (t1_module, t2_module):
        k = module.weight
        for t in range(1, k + 1):
            entries = sample_cone_tuple(module, rng, t)
            ok = ok and mixed_hlt_check(module, entries, require_cone=False).passed
            ok = ok and kernel_weight_bound(module, entries, require_cone=False).passed
        for t in range(0, k - 1):
            entries = sample_cone_tuple(module, rng, t + 1)
            ok = ok and mixed_hrr_check(module, entries, require_cone=False).passed
            ok = ok and mixed_decomposition_check(module, entries, require_cone=False).passed

    # T3 tuples drawn by the positive-definiteness certificate, which the
    # torus tests show is equivalent to cone membership
    spec = load_torus_spec("torus3")

    def sample_pd():
        while True:
            coeffs = tuple(F(rng.randint(0, 4), 2) for _ in range(3))
            h = Matrix.zeros(3, 3)
            for c, gen in zip(coeffs, spec.hermitians):
                if c:
                    h = h + gen.scale(c)
            if hermitian_pd(h):
                return coeffs

    for t in (1, 2, 3):
        entries = [sample_pd() for _ in range(t)]
        ok = ok and mixed_hlt_check(t3_module, entries, require_cone=False).passed
    for t in (0, 1):
        entries = [sample_pd() for _ in range(t + 1)]
        ok = ok and mixed_hrr_check(t3_module, entries, require_cone=False).passed
    entries = [sample_pd(), sample_pd()]
    ok = ok and kernel_weight_bound(t3_module, entries, require_cone=False).passed
    _verdict("criterion-7 torus-calibration", ok)


def test_criterion_08_alexandrov_fenchel(corpus):
    rng = random.Random(88)
    ok = True
    for name in ("square", "cube3"):
        p, nu, module = corpus[name]
        rest = [list(p.support)] * (p.dim - 2)
        for _ in range(100):
            c1 = list(sample_cone_element(module, rng))
            c2 = list(sample_cone_element(module, rng))
            ok = ok and af_check(nu, c1, c2, rest).passed
    for name, (p, nu, _) in corpus.items():
        ok = ok and mixed_volume(nu, [list(p.support)] * p.dim) == nu.evaluate(p.support)
    worked = af_check(corpus["square"][1], [1, 1, 1, 1], [2, 2, 1, 1])
    ok = ok and worked.passed and worked.data == {"m12": "6", "m11": "4", "m22": "8"}
    ok = ok and 6 * 6 >= 4 * 8
    _verdict("criterion-8 alexandrov-fenchel", ok)


def test_criterion_09_sl2_completion(corpus):
    rng = random.Random(99)
    ok = True
    for name, (_, _, module) in corpus.items():
        elements = [module.reference] + [
            sample_cone_element(module, rng) for _ in range(10)
        ]
        for coeffs in elements:
            triple = sl2_complete(module, coeffs)
            ok = ok and triple.n_plus * triple.n - triple.n * triple.n_plus == triple.y
            ok = ok and triple.y * triple.n_plus - triple.n_plus * triple.y == triple.n_plus.scale(F(2))
            ok = ok and triple.y * triple.n - triple.n * triple.y == triple.n.scale(F(-2))
        # uniqueness: any perturbation of the raising operator breaks a relation
        triple = sl2_complete(module, module.reference)
        gi = module.space.grade_indices()
        edits = {}
        touched = False
        for l, idx in gi.items():
            for i in gi.get(l + 2, []):
                edits[i, idx[0]] = triple.n_plus[i, idx[0]] + F(1)
                touched = True
        perturbed = with_entries(triple.n_plus, edits)
        if touched:
            ok = ok and perturbed * triple.n - triple.n * perturbed != triple.y
    _verdict("criterion-9 sl2-completion", ok)


def test_criterion_10_negative_controls(corpus, capsys):
    ok = True
    sq_module = corpus["square"][2]

    # mutated form: block negation breaks parity with a located witness
    q = with_entries(sq_module.form, {(0, 3): -sq_module.form[0, 3]})
    mutated = HLModule(
        space=sq_module.space,
        form=q,
        family=sq_module.family,
        reference=sq_module.reference,
    )
    rep = validate_structure(mutated)
    ok = ok and rep.verdict == "fail"
    parity = [s for s in rep.failures() if s.name == "form-parity"]
    ok = ok and bool(parity) and parity[0].witness is not None

    # globally negated form passes structure but fails positivity
    negated = HLModule(
        space=sq_module.space,
        form=sq_module.form.scale(F(-1)),
        family=sq_module.family,
        reference=sq_module.reference,
    )
    ok = ok and validate_structure(negated).passed
    pol = polarization_check(negated, negated.reference)
    ok = ok and pol.verdict == "fail"
    ok = ok and any(s.witness and "minor-index" in s.witness for s in pol.failures())

    # brute-force boundary search over small supports on the square
    found = []
    for c1 in range(2):
        for c2 in range(2):
            for c3 in range(2):
                for c4 in range(2):
                    c = (F(c1), F(c2), F(c3), F(c4))
                    if c == (0, 0, 0, 0):
                        continue
                    if not lefschetz_property(sq_module, c):
                        hlt = mixed_hlt_check(sq_module, [c, c], require_cone=False)
                        if not hlt.passed:
                            found.append(c)
    ok = ok and (F(1), F(0), F(0), F(0)) in found

    # octahedron rejected as non-simple
    normals, support = octahedron_data()
    try:
        build_polytope(normals, support)
        ok = False
    except PolytopeError as err:
        ok = ok and err.code == "non-simple"

    # CLI: theorem failure is exit 1, invalid input is exit 2
    code_fail = cli_main(["module", "check", "--in", str(FIXTURES / "broken.json")])
    code_input = cli_main(
        ["polytope", "check", str(FIXTURES / "octahedron.json"), "--seed", "1"]
    )
    capsys.readouterr()
    ok = ok and code_fail == 1 and code_input == 2
    _verdict("criterion-10 negative-controls", ok)
