import numpy as np
import pytest

from textomp import (GOMPConfig, Group, GroupStructure, OMPConfig,
                     SparseMatrix, objective, remove_overlap, run_gomp,
                     run_omp, score_group_averaged, score_group_gram,
                     score_group_orthonormal, select_group)

from conftest import random_design, random_labels


def explicit_3x3_inverse(M):
    """Cofactor-expansion inverse, independent of the linalg solver."""
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array([
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ])
    return adj / det


def orthonormal_design(rng, n, k, extra=2):
    """First k columns orthonormal (QR), then noise columns, then a bias."""
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    dense = np.column_stack([q, rng.normal(size=(n, extra)), np.ones(n)])
    return dense, SparseMatrix.from_dense(dense, bias_col=dense.shape[1] - 1)


# -- scores ---------------------------------------------------------------------

def test_orthonormal_score_of_singleton_is_squared_correlation(rng):
    dense, X = random_design(rng, 5, 6)
    r = rng.normal(size=5)
    assert score_group_orthonormal(X, Group.of("g", [2]), r) \
        == pytest.approx(X.col_dot(2, r) ** 2, rel=1e-12)


def test_orthonormal_score_zero_when_group_orthogonal_to_residual():
    dense = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = SparseMatrix.from_dense(dense)
    r = np.array([0.0, 0.0, 5.0])
    assert score_group_orthonormal(X, Group.of("g", [0, 1]), r) == 0.0


def test_orthonormal_score_matches_two_term_recomputation(rng):
    dense, X = random_design(rng, 5, 6)
    r = rng.normal(size=5)
    expected = float((dense[:, 1] @ r) ** 2 + (dense[:, 4] @ r) ** 2)
    assert score_group_orthonormal(X, Group.of("g", [1, 4]), r) \
        == pytest.approx(expected, rel=1e-12)


def test_empty_group_scores_negative_infinity(rng):
    _, X = random_design(rng, 4, 3)
    r = np.ones(4)
    assert score_group_orthonormal(X, Group("g", ()), r) == float("-inf")
    assert score_group_averaged(X, Group("g", ()), r) == float("-inf")
    assert score_group_gram(X, Group("g", ()), r) == float("-inf")


def test_gram_score_equals_orthonormal_score_on_orthonormal_group(rng):
    dense, X = orthonormal_design(rng, 12, 4)
    r = rng.normal(size=12)
    g = Group.of("q", [0, 1, 2, 3])
    assert score_group_gram(X, g, r) \
        == pytest.approx(score_group_orthonormal(X, g, r), abs=1e-9)


def test_gram_score_duplicated_column_falls_back_to_span(rng):
    dense, X = random_design(rng, 6, 4)
    dup = np.column_stack([dense, dense[:, [1]]])
    Xd = SparseMatrix.from_dense(dup)
    r = rng.normal(size=6)
    pair = score_group_gram(Xd, Group.of("g", [1, 4]), r)
    single = score_group_gram(Xd, Group.of("g", [1]), r)
    assert pair == pytest.approx(single, rel=1e-6)


def test_gram_score_matches_explicit_inverse_oracle(rng):
    dense, X = random_design(rng, 6, 5)
    r = rng.normal(size=6)
    members = [0, 2, 3]
    Xg = dense[:, members]
    c = Xg.T @ r
    expected = float(abs(c @ explicit_3x3_inverse(Xg.T @ Xg) @ c))
    assert score_group_gram(X, Group.of("g", members), r) \
        == pytest.approx(expected, abs=1e-9)


def test_averaged_score_is_orthonormal_over_size(rng):
    dense, X = random_design(rng, 7, 8)
    r = rng.normal(size=7)
    g = Group.of("g", [0, 3, 5])
    assert score_group_averaged(X, g, r) \
        == pytest.approx(score_group_orthonormal(X, g, r) / 3, rel=1e-12)
    s = Group.of("s", [6])
    assert score_group_averaged(X, s, r) \
        == score_group_orthonormal(X, s, r)


def test_averaged_score_prefers_small_informative_group():
    # two strong columns alone vs the same two plus 100 useless ones:
    # equal raw energy, so the averaged score favors the small group 51x
    n = 4
    r = np.array([1.0, 1.0, 0.0, 0.0])
    good = np.column_stack([r, r])
    bad = np.zeros((n, 100))
    bad[2, :50] = 1.0
    bad[3, 50:] = 1.0
    dense = np.column_stack([good, bad, np.ones(n)])
    X = SparseMatrix.from_dense(dense, bias_col=102)
    small = Group.of("small", [0, 1])
    big = Group.of("big", range(102))
    s_small = score_group_averaged(X, small, r)
    s_big = score_group_averaged(X, big, r)
    assert score_group_orthonormal(X, small, r) \
        == pytest.approx(score_group_orthonormal(X, big, r))
    assert s_small == pytest.approx(51.0 * s_big, rel=1e-12)


# -- select_group ------------------------------------------------------------------

def test_select_group_prefers_aligned_singleton():
    dense = np.column_stack([[1.0, 0.0], [0.0, 1.0]])
    X = SparseMatrix.from_dense(dense)
    groups = GroupStructure([("a", [0]), ("b", [1])])
    pos, _ = select_group(X, groups, np.array([3.0, 0.1]))
    assert pos == 0


def test_select_group_tie_takes_first_position(rng):
    dense, X = random_design(rng, 5, 4)
    groups = GroupStructure([("a", [1, 2]), ("b", [1, 2])])
    r = rng.normal(size=5)
    pos, _ = select_group(X, groups, r)
    assert pos == 0


def test_select_group_matches_exhaustive_scan(rng):
    _, X = random_design(rng, 10, 20)
    members = [sorted(rng.choice(19, size=int(rng.integers(1, 6)),
                                 replace=False).tolist())
               for _ in range(8)]
    groups = GroupStructure([(f"g{i}", m) for i, m in enumerate(members)])
    r = rng.normal(size=10)
    # stripping the first two groups' members empties them and shrinks others
    stripped = remove_overlap(groups, set(members[0]) | set(members[1]))
    assert len(stripped[0]) == len(stripped[1]) == 0
    for structure in (groups, stripped):
        for criterion, scorer in (("orthonormal", score_group_orthonormal),
                                  ("averaged", score_group_averaged),
                                  ("gram_corrected", score_group_gram)):
            scores = [scorer(X, g, r) for g in structure]
            expected = int(np.argmax(scores))
            pos, score = select_group(X, structure, r, criterion=criterion)
            assert pos == expected
            assert score == pytest.approx(scores[expected], rel=1e-12)


def test_select_group_all_empty_errors(rng):
    _, X = random_design(rng, 4, 3)
    groups = GroupStructure([Group("a", ()), Group("b", ())])
    with pytest.raises(ValueError):
        select_group(X, groups, np.ones(4))


# -- remove_overlap -----------------------------------------------------------------

def test_remove_overlap_set_difference():
    groups = GroupStructure([("g1", [1, 2, 3]), ("g2", [3, 4])])
    out = remove_overlap(groups, {3, 4})
    assert out[0].members == (1, 2)
    assert out[1].members == ()


def test_remove_overlap_disjoint_unchanged():
    groups = GroupStructure([("g1", [1, 2]), ("g2", [5, 6])])
    out = remove_overlap(groups, {3, 4})
    assert out[0].members == (1, 2)
    assert out[1].members == (5, 6)


def test_remove_overlap_superset_empties_group(rng):
    _, X = random_design(rng, 6, 5)
    groups = remove_overlap(GroupStructure([("g1", [1, 2])]), {0, 1, 2, 3})
    assert groups[0].members == ()
    with pytest.raises(ValueError):
        select_group(X, groups, np.ones(6))


# -- run_gomp -----------------------------------------------------------------------

def test_singleton_groups_with_averaged_criterion_replay_plain_selection(rng):
    _, X = random_design(rng, 25, 10)
    y = random_labels(rng, 25)
    singletons = GroupStructure([(f"s{j}", [j]) for j in range(9)])
    # epsilon=2 stops OMP after 3 of 6 selections; group OMP must stop
    # there too, which needs both to threshold the same correlation norm
    for epsilon in (0.0, 2.0):
        cfg = GOMPConfig(budget=6, lam=0.5, epsilon=epsilon,
                         criterion="averaged", augment_singletons=False)
        gmodel, gtraj = run_gomp(X, y, singletons, cfg)
        omodel, otraj = run_omp(X, y, OMPConfig(budget=6, lam=0.5,
                                                epsilon=epsilon))
        picked = [rec.members_added[0] for rec in gtraj.records]
        assert picked == otraj.selected_indices(), epsilon
        assert gtraj.selected_indices() == otraj.selected_indices()
        np.testing.assert_allclose(gmodel.theta, omodel.theta,
                                   atol=1e-9)


def test_overlapping_groups_share_predictive_feature():
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    col_pred = y.copy()
    col_n1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    col_n2 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    dense = np.column_stack([col_pred, col_n1, col_n2, np.ones(8)])
    X = SparseMatrix.from_dense(dense, bias_col=3)
    groups = GroupStructure([("a", [0, 1]), ("b", [0, 2])])
    cfg = GOMPConfig(budget=10, lam=1.0, criterion="averaged",
                     augment_singletons=False, checkpoint_interval=1)

    states = []
    model, traj = run_gomp(X, y, groups, cfg,
                           on_iteration=lambda s, g: states.append((s, g)))
    # the tied groups both score (col_pred . y)^2 / 2; "a" wins by position
    assert traj.records[0].name == "a"
    first_score = (float(col_pred @ y) ** 2) / 2
    assert traj.records[0].score == pytest.approx(first_score, rel=1e-12)
    # after removal, b keeps only its noise column; its score against the
    # new residual is that column's squared correlation (scalar oracle)
    _, groups_after_1 = states[0]
    assert groups_after_1[1] == {2}
    if len(traj.records) > 1:
        rec = traj.records[1]
        r1_theta = traj.checkpoints[0][1]
        from textomp import residual
        r1 = residual(X, r1_theta, y)
        assert rec.name == "b"
        assert rec.score == pytest.approx(float(col_n2 @ r1) ** 2, rel=1e-10)
        assert rec.score < first_score


def test_budget_overshoot_stops_after_two_groups(rng):
    _, X = random_design(rng, 30, 10, density=1.0)
    y = random_labels(rng, 30)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [3, 4, 5]),
                             ("c", [6, 7, 8])])
    cfg = GOMPConfig(budget=5, lam=1.0, augment_singletons=False)
    model, traj = run_gomp(X, y, groups, cfg)
    assert len(traj.records) == 2
    assert model.active.n_selected(X.bias_col) == 6


def test_inactive_groups_stay_disjoint_from_active_set(rng):
    for trial in range(10):
        local = np.random.default_rng(trial)
        _, X = random_design(local, 15, 12)
        y = random_labels(local, 15)
        groups = GroupStructure([
            (f"g{i}", sorted(local.choice(11, size=int(local.integers(1, 5)),
                                          replace=False).tolist()))
            for i in range(6)
        ])
        cfg = GOMPConfig(budget=11, lam=0.5, augment_singletons=False)

        def check(active, group_sets):
            for members in group_sets:
                assert not (members & set(active))

        run_gomp(X, y, groups, cfg, on_iteration=check)


def test_no_feature_enters_twice_despite_overlap(rng):
    _, X = random_design(rng, 20, 10)
    y = random_labels(rng, 20)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 3, 4]),
                             ("c", [4, 5, 0]), ("d", [6, 7])])
    cfg = GOMPConfig(budget=9, lam=0.5, augment_singletons=False)
    _, traj = run_gomp(X, y, groups, cfg)
    added = [j for rec in traj.records for j in rec.members_added]
    assert len(added) == len(set(added))


def test_augment_singletons_config_appends_every_feature(rng):
    _, X = random_design(rng, 20, 6)
    y = random_labels(rng, 20)
    cfg = GOMPConfig(budget=5, lam=0.5, augment_singletons=True)
    model, traj = run_gomp(X, y, GroupStructure([("a", [0, 1])]), cfg)
    names = {rec.name for rec in traj.records}
    assert names <= {"a"} | {f"single_{j}" for j in range(5)}
    assert model.active.n_selected(X.bias_col) >= 1


def test_objective_never_increases_across_group_iterations(rng):
    _, X = random_design(rng, 25, 12)
    y = random_labels(rng, 25)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 5]),
                             ("c", [6, 7, 8, 9]), ("d", [10])])
    cfg = GOMPConfig(budget=11, lam=0.5, augment_singletons=False,
                     checkpoint_interval=1)
    _, traj = run_gomp(X, y, groups, cfg)
    values = [objective(X, y, theta, 0.5) for _, theta in traj.checkpoints]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-6


def test_records_carry_original_composition(rng):
    _, X = random_design(rng, 15, 8)
    y = random_labels(rng, 15)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 3])])
    cfg = GOMPConfig(budget=7, lam=0.5, augment_singletons=False)
    _, traj = run_gomp(X, y, groups, cfg)
    by_name = {rec.name: rec for rec in traj.records}
    if "b" in by_name:
        assert by_name["b"].members_original == (2, 3)


def test_group_structure_validation(rng):
    _, X = random_design(rng, 5, 4)
    y = random_labels(rng, 5)
    cfg = GOMPConfig(budget=2, augment_singletons=False)
    with pytest.raises(ValueError):
        run_gomp(X, y, GroupStructure([("a", [9])]), cfg)
    with pytest.raises(ValueError):
        run_gomp(X, y, GroupStructure([("a", [3])]), cfg)  # bias grouped
    with pytest.raises(ValueError):
        GroupStructure([("a", [0]), ("a", [1])])
    with pytest.raises(ValueError):
        GOMPConfig(criterion="nope")
