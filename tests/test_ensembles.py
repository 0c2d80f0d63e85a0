import json
import math
import re

import numpy as np
import pytest

from obcast.ensembles import (
    GopEnsemble,
    Isometry,
    PostInfoEnsemble,
    Povm,
    classical_ray_labels,
    from_json_dict,
    gallery,
    gallery_names,
    gen_bb84,
    global_orthogonality_check,
    induced_postinfo,
    local_unitary_equivalence_deviation,
    qubit_qudit_form_check,
    to_json_dict,
)
from obcast.ensembles import _gram, _largest_in_setting_overlap, _modulus, _ray_classes
from obcast.discrimination import merged_row_targets
from obcast.linalg import ket, pure_state_overlap
from obcast.sampling import unitary_from_normals

SQ2 = math.sqrt(2)


def test_gallery_names_cover_every_builder():
    names = [n for n in gallery_names() if "<" not in n]
    assert {"bb84", "obb", "cq", "qq", "qq-tilde", "shifts", "thm1-pairs", "prop1-povm"} <= set(names)
    for name in names:
        gallery(name)  # construction runs every type invariant


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        gallery("no-such-thing")


def test_gen_bb84_angle_parsing():
    for name in ("gen-bb84(1.5707963267948966)", "gen-bb84(pi/2)", "gen-bb84(0.5*pi)"):
        g = gallery(name)
        assert abs(pure_state_overlap(g.b_states[2], ket([1, 1]) / SQ2)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        gallery("gen-bb84(two)")


def test_bb84_structure():
    ens = gallery("bb84")
    assert len(ens.settings) == 2
    assert ens.orthogonal
    assert sum(p for g in ens.prior for p in g) == pytest.approx(1.0, abs=1e-15)


def test_prop1_povm_is_a_qutrit_povm():
    povm = gallery("prop1-povm")
    assert len(povm) == 4 and povm.dim == 3
    assert np.abs(sum(povm.effects) - np.eye(3)).max() <= 1e-12


def test_shifts_is_globally_orthogonal_on_4x2():
    s = gallery("shifts")
    assert s.dims == (4, 2)
    assert global_orthogonality_check(s.a_states, s.b_states).ok


def test_seven_state_priors():
    for name in ("obb", "cq", "qq", "qq-tilde"):
        ens = gallery(name)
        assert ens.prior[0] == pytest.approx(0.25)
        assert all(p == pytest.approx(0.125) for p in ens.prior[1:])


def test_global_orthogonality_counterexample():
    k0, kp = ket([1, 0]), ket([1, 1]) / SQ2
    report = global_orthogonality_check([k0, k0], [k0, kp])
    assert not report.ok
    assert report.max_violation == pytest.approx(1 / SQ2, abs=1e-12)


def test_obb_passes_global_orthogonality():
    g = gallery("obb")
    assert global_orthogonality_check(g.a_states, g.b_states).ok


def test_json_round_trip_is_bit_exact():
    kinds = set()
    for name in (n for n in gallery_names() if "<" not in n):
        obj = gallery(name)
        if not isinstance(obj, (PostInfoEnsemble, GopEnsemble)):
            continue
        document = json.loads(json.dumps(to_json_dict(obj)))
        kinds.add(document["kind"])
        back = from_json_dict(document)
        assert type(back) is type(obj)
        if isinstance(obj, PostInfoEnsemble):
            assert back.settings == obj.settings and back.prior == obj.prior
            kets = [pair for groups in zip(obj.states, back.states, strict=True) for pair in zip(*groups, strict=True)]
        else:
            assert back.prior == obj.prior
            kets = list(zip(obj.a_states + obj.b_states, back.a_states + back.b_states, strict=True))
        assert all(s1.tobytes() == s2.tobytes() for s1, s2 in kets)
    assert kinds == {"postinfo", "gop"}


@pytest.mark.parametrize("name", ["prop1-povm", "thm1-isometry"])
def test_a_povm_or_isometry_document_is_no_ensemble(name):
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        from_json_dict(to_json_dict(gallery(name)))


def test_entangling_isometry_images():
    iso = gallery("thm1-isometry")
    sq = 1 / SQ2

    def pm(m, n, s, phase=1.0):
        v = np.zeros(3, dtype=complex)
        v[m], v[n] = 1.0, s * phase
        return v * sq

    plus = ket([1, 1]) / SQ2
    minus = ket([1, -1]) / SQ2
    tplus = ket([1, 1j]) / SQ2
    tminus = ket([1, -1j]) / SQ2
    expected = [
        (pm(0, 1, 1), np.kron(ket([1, 0]), ket([1, 0]))),
        (pm(0, 1, -1), np.kron(ket([0, 1]), ket([0, 1]))),
        (pm(0, 2, 1), np.kron(plus, plus)),
        (pm(0, 2, -1), np.kron(minus, minus)),
        (pm(1, 2, 1, 1j), np.kron(tplus, tplus)),
        (pm(1, 2, -1, 1j), np.kron(tminus, tminus)),
    ]
    for src, image in expected:
        assert np.abs(iso.apply(src) - image).max() <= 1e-12


def test_qq_equivalence_unitary_carries_qq_onto_primed_set():
    dev = local_unitary_equivalence_deviation(
        gallery("qq-equivalence-unitary"), gallery("qq"), gallery("qq-tilde")
    )
    assert dev <= 1e-12


def test_form_check_on_rotated_family():
    form = qubit_qudit_form_check(gen_bb84(math.pi / 2))
    assert (form.fits, form.reason) == (True, "fits")


def test_form_check_detects_removable_state():
    e3 = np.eye(3, dtype=complex)
    gop = GopEnsemble(
        a_states=(ket([1, 0]), ket([0, 1]), ket([1, 1]) / SQ2),
        b_states=(e3[0], e3[1], e3[2]),
        prior=(1 / 3, 1 / 3, 1 / 3),
    )
    assert qubit_qudit_form_check(gop).fits  # the |+> state is removable: its e2 is orthogonal to e0 and e1


# (a side, b side) of every product-set gallery entry; None means not one basis
_RAY_LABELS = {
    "thm2-eight": ([0, 0, 1, 1, 2, 2, 3, 3], None),
    "cor4-six": ([0, 1, 2, 0, 1, 2], None),
    "obb": ([0, 0, 1, 1, 0, 2, 2], None),
    "cq": ([0, 0, 0, 1, 1, 2, 2], None),
    "qq": (None, None),
    "qq-tilde": (None, None),
    "shifts": (None, None),
    "gen-bb84(0.1)": ([0, 0, 1, 1], None),
    "gen-bb84(pi/2)": ([0, 0, 1, 1], None),
    "gen-bb84(pi/3)": ([0, 0, 1, 1], None),
}


@pytest.mark.parametrize("name", sorted(_RAY_LABELS))
def test_classical_ray_labels_on_product_sets(name):
    gop = gallery(name)
    got = (classical_ray_labels(gop.a_states), classical_ray_labels(gop.b_states))
    assert got == _RAY_LABELS[name]


_OTHER_FIRST_FACTOR = {3: "first factor has dimension 3, not 2", 4: "first factor has dimension 4, not 2"}
_FITS = (True, "fits")
# per product-set entry: ray classes of (a side, b side); the induced ensemble's
# (index sets, orthogonal flag) on side a and on side b, None where the side is
# not classical; global orthogonality's (ok, worst pair); and the form check's
# (fits, reason)
_PRODUCT_STRUCTURE = {
    "cor4-six": (
        ([0, 1, 2, 0, 1, 2], [0, 1, 2, 3, 4, 5]),
        (((2, 2, 2), True), None),
        (True, (0, 0)),
        (False, _OTHER_FIRST_FACTOR[3]),
    ),
    "cq": (
        ([0, 0, 0, 1, 1, 2, 2], list(range(7))),
        (((3, 2, 2), True), None),
        (True, (1, 1)),
        (False, _OTHER_FIRST_FACTOR[3]),
    ),
    "obb": (
        ([0, 0, 1, 1, 0, 2, 2], list(range(7))),
        (((3, 2, 2), True), None),
        (True, (2, 2)),
        (False, _OTHER_FIRST_FACTOR[3]),
    ),
    "qq": (([0, 1, 2, 2, 3, 3, 4], list(range(7))), (None, None), (True, (1, 1)), (False, _OTHER_FIRST_FACTOR[3])),
    "qq-tilde": (
        ([0, 1, 2, 2, 3, 4, 4], list(range(7))),
        (None, None),
        (True, (1, 1)),
        (False, _OTHER_FIRST_FACTOR[3]),
    ),
    "shifts": (([0, 1, 2, 3], [0, 1, 2, 3]), (None, None), (True, (1, 1)), (False, _OTHER_FIRST_FACTOR[4])),
    "thm2-eight": (
        ([0, 0, 1, 1, 2, 2, 3, 3], list(range(8))),
        (((2, 2, 2, 2), True), None),
        (True, (2, 2)),
        (False, "first factor has dimension 5, not 2"),
    ),
    "gen-bb84(0.1)": (([0, 0, 1, 1], [0, 1, 2, 3]), (((2, 2), True), None), (True, (2, 3)), _FITS),
    "gen-bb84(pi/2)": (([0, 0, 1, 1], [0, 1, 2, 3]), (((2, 2), True), None), (True, (2, 3)), _FITS),
    "gen-bb84(pi/3)": (([0, 0, 1, 1], [0, 1, 2, 3]), (((2, 2), True), None), (True, (2, 3)), _FITS),
}


def _rays(states) -> list[int]:
    return _ray_classes(_modulus(_gram(states, states)))


def _induced(gop, side):
    try:
        ens = induced_postinfo(gop, classical_side=side)
    except ValueError:
        return None
    return ens.index_sets, ens.orthogonal


@pytest.mark.parametrize("name", sorted(_PRODUCT_STRUCTURE))
def test_product_entries_keep_their_rays_reductions_orthogonality_and_form(name):
    gop = gallery(name)
    ortho = global_orthogonality_check(gop.a_states, gop.b_states)
    form = qubit_qudit_form_check(gop)
    got = (
        (_rays(gop.a_states), _rays(gop.b_states)),
        (_induced(gop, "a"), _induced(gop, "b")),
        (ortho.ok, ortho.worst_pair),
        (form.fits, form.reason),
    )
    assert got == _PRODUCT_STRUCTURE[name]


@pytest.mark.parametrize("name, rays", [("bb84", [0, 1, 2, 3]), ("minimal-qutrit", [0, 1, 2, 3]), ("thm1-pairs", list(range(6)))])
def test_postinfo_entries_keep_their_rays_and_orthogonality(name, rays):
    ens = gallery(name)
    states = [s for group in ens.states for s in group]
    assert (_rays(states), classical_ray_labels(states), ens.orthogonal) == (rays, None, True)


@pytest.mark.parametrize("name", sorted(_PRODUCT_STRUCTURE) + ["bb84", "minimal-qutrit", "thm1-pairs"])
def test_overlap_matrix_has_the_bits_of_each_scalar_overlap(name):
    obj = gallery(name)
    groups = obj.states if isinstance(obj, PostInfoEnsemble) else (obj.a_states, obj.b_states)
    for v in groups:
        for w in (w for w in groups if len(w[0]) == len(v[0])):
            gram = _gram(v, w)
            assert gram.shape == (len(v), len(w))
            for j, x in enumerate(v):
                for k, y in enumerate(w):
                    overlap = pure_state_overlap(x, y)
                    assert gram[j, k] == overlap and _modulus(gram)[j, k] == abs(overlap)
    worst = max((abs(pure_state_overlap(g[i], g[j])) for g in groups for i in range(len(g)) for j in range(i)), default=0.0)
    assert _largest_in_setting_overlap(groups) == worst


def test_overlap_matrix_of_random_kets_has_the_bits_of_each_scalar_overlap():
    rng = np.random.default_rng(11)
    for d, n, m in ((2, 3, 4), (3, 5, 5), (7, 4, 2)):
        v = list(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
        w = list(rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d)))
        gram = _gram(v, w)
        want = [[pure_state_overlap(x, y) for y in w] for x in v]
        assert gram.tolist() == want
        assert _modulus(gram).tolist() == [[abs(z) for z in row] for row in want]


def test_form_check_falls_back_when_a_removable_state_overlaps_another():
    # keeping the largest ray class (the three |+> states) would leave |0>e0 and |1>e0 removable, whose
    # second factors coincide; keeping the orthogonal pair {|0>, |1>} leaves the |+> states removable
    e4 = np.eye(4, dtype=complex)
    plus = ket([1, 1]) / SQ2
    gop = GopEnsemble(
        a_states=(ket([1, 0]), ket([0, 1]), plus, plus, plus),
        b_states=(e4[0], e4[0], e4[1], e4[2], e4[3]),
        prior=(0.2,) * 5,
    )
    assert qubit_qudit_form_check(gop).fits


def test_form_check_fails_when_every_selection_leaves_overlapping_states():
    # the orthogonal pairs {|0>, |1>} and {|+>, |->} each leave two states whose second factors coincide
    e2 = np.eye(2, dtype=complex)
    gop = GopEnsemble(
        a_states=(ket([1, 0]), ket([0, 1]), ket([1, 1]) / SQ2, ket([1, -1]) / SQ2),
        b_states=(e2[0], e2[0], e2[1], e2[1]),
        prior=(0.25,) * 4,
    )
    form = qubit_qudit_form_check(gop)
    assert (form.fits, form.reason) == (False, "no orthogonal ray selection covers the non-removable states")


def test_form_check_rejects_qutrit_first_factor():
    form = qubit_qudit_form_check(gallery("cor4-six"))
    assert not form.fits
    assert "dimension 3" in form.reason


def test_induced_postinfo_requires_a_classical_side():
    with pytest.raises(ValueError):
        induced_postinfo(gallery("qq"), classical_side="a")
    induced = induced_postinfo(gallery("thm2-eight"), classical_side="a")
    assert induced.index_sets == (2, 2, 2, 2)
    assert induced.orthogonal


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        PostInfoEnsemble(settings=("0",), states=((ket([1, 0]),),), prior=((0.5,),))
    with pytest.raises(ValueError):
        Povm(effects=(np.eye(2) * 0.5,))
    with pytest.raises(ValueError):
        Isometry(matrix=np.ones((2, 2)), output_dims=(2,))
    with pytest.raises(ValueError):
        GopEnsemble(
            a_states=(ket([1, 0]), ket([1, 0])),
            b_states=(ket([1, 0]), ket([1, 1]) / SQ2),
            prior=(0.5, 0.5),
        )


def test_povm_from_slices_of_a_transposed_layout_stack():
    effects = np.array(gallery("prop1-povm").effects)
    # same values, but each effect is a view whose last axis is not contiguous
    stack = np.ascontiguousarray(effects.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not stack[0].flags.c_contiguous
    povm = Povm(effects=tuple(stack))
    assert all(np.array_equal(a, b) for a, b in zip(povm.effects, gallery("prop1-povm").effects))


def povm_inputs():
    """The gallery POVMs and a pretty-good POVM on 256 answer rows (d = 4, four settings),
    each effect nudged off Hermitian below the tolerance so that symmetrizing changes its bytes."""
    rng = np.random.default_rng(11)
    states = tuple(tuple(np.ascontiguousarray(c) for c in unitary_from_normals(rng.normal(size=(2, 4, 4))).T) for _ in range(4))
    w = rng.dirichlet(np.ones(16)).reshape(4, 4)
    ens = PostInfoEnsemble(
        settings=("0", "1", "2", "3"),
        states=states,
        prior=tuple(tuple(float(x) for x in row) for row in w),
        orthogonal=True,
    )
    rows = np.array(merged_row_targets(ens).operators)
    vals, vecs = np.linalg.eigh(rows.sum(axis=0))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    povms = [gallery(n).effects for n in gallery_names() if "<" not in n and isinstance(gallery(n), Povm)]
    assert len(povms) == 2
    povms.append(tuple(root @ rows @ root))
    assert len(povms[-1]) == 256
    return [tuple(e + 1e-13 * rng.normal(size=e.shape) for e in effects) for effects in povms]


def test_povm_stores_each_effect_as_its_hermitian_part_bit_for_bit():
    for raw in povm_inputs():
        povm = Povm(effects=raw)
        assert [e.tobytes() for e in povm.effects] == [((e + e.conj().T) / 2).tobytes() for e in raw]
        assert all(not e.flags.writeable for e in povm.effects)


@pytest.mark.parametrize(
    "effects, message",
    [
        (
            (np.diag([1.0, 0.0]), np.array([[0.0, 2e-6], [1e-6, 1.0]]), np.array([[0.0, 5e-6], [0.0, 0.0]])),
            "matrix is not Hermitian (residual 1.000e-06 > 1.0e-10)",
        ),
        ((np.diag([1.0, -0.25]), np.diag([0.0, 1.75]), np.diag([0.0, -0.5])), "effect has negative eigenvalue -2.500e-01"),
        ((np.diag([0.5, 0.5]), np.diag([0.25, 0.5])), "effects sum to identity only within 2.500e-01"),
        ((np.eye(2), np.zeros((3, 3))), "effects must share a dimension"),
        ((np.eye(2), np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
        ((), "a POVM needs at least one effect"),
    ],
)
def test_povm_rejections_report_the_first_bad_effect(effects, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Povm(effects=effects)


_K0, _K1, _PLUS = ket([1, 0]), ket([0, 1]), ket([1, 1]) / SQ2


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: PostInfoEnsemble(settings=("0", "1"), states=((_K0,),), prior=((1.0,),)),
            ValueError,
            "settings, states, and prior must align",
        ),
        (
            lambda: PostInfoEnsemble(settings=("0", "1"), states=((_K0,), (ket([1, 0, 0]),)), prior=((0.5,), (0.5,))),
            ValueError,
            "states live on different dimensions: [2, 3]",
        ),
        (
            lambda: PostInfoEnsemble(settings=("0",), states=((_K0, _K1),), prior=((1.0,),)),
            ValueError,
            "prior shape must match states",
        ),
        (
            lambda: PostInfoEnsemble(settings=("0",), states=((_K0, _PLUS),), prior=((0.5, 0.5),), orthogonal=True),
            ValueError,
            "orthogonality flag set but max in-setting overlap is 7.071e-01",
        ),
        (
            lambda: GopEnsemble(a_states=(_K0, _K1), b_states=(_K0,), prior=(0.5, 0.5)),
            ValueError,
            "a_states, b_states, prior must have equal length",
        ),
        (
            lambda: GopEnsemble(a_states=(_K0, _K1), b_states=(_K0, ket([0, 1, 0])), prior=(0.5, 0.5)),
            ValueError,
            "per-side dimensions must agree",
        ),
        (
            lambda: Isometry(matrix=np.ones((1, 2)), output_dims=(1,)),
            ValueError,
            "output dimension must be at least the input dimension",
        ),
        (lambda: Isometry(matrix=np.eye(4), output_dims=(2, 3)), ValueError, "output_dims (2, 3) do not multiply to 4"),
        (
            lambda: induced_postinfo(gen_bb84(math.pi / 2), classical_side="c"),
            ValueError,
            "classical_side must be 'a' or 'b'",
        ),
        (
            lambda: local_unitary_equivalence_deviation(gallery("thm1-isometry"), gallery("qq"), gallery("qq-tilde")),
            ValueError,
            "equivalence map must be a square unitary",
        ),
        (lambda: to_json_dict(object()), TypeError, "cannot serialize object"),
    ],
)
def test_input_checks_name_what_is_wrong(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "source, target",
    [("qq", "gen-bb84(pi/2)"), ("qq", "qq-tilde")],  # a different state count; no state of the image matched
)
def test_local_unitary_equivalence_is_infinite_without_a_matching(source, target):
    identity = Isometry(matrix=np.eye(3), output_dims=(3,))
    assert local_unitary_equivalence_deviation(identity, gallery(source), gallery(target)) == math.inf
