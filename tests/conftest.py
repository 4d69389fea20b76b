import dataclasses

import numpy as np
import pytest

import daglm


@pytest.fixture(scope="session")
def demo_spec():
    return daglm.DagSpec(levels=(2, 2))


@pytest.fixture(scope="session")
def demo_kernel():
    return daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[0.75, 0.25], [0.25, 0.75]]),),
    )


def gaussian_grid(spec, means, variances):
    """Quality model with a Gaussian node at every (i, j) of ``spec``, of
    the given per-node mean and variance (matrices indexed [i-1, j-1])."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    return daglm.QualityModel({
        (i, j): daglm.NodeQuality.gaussian(means[i - 1, j - 1], variances[i - 1, j - 1])
        for j, r in enumerate(spec.levels, start=1) for i in range(1, r + 1)
    })


@pytest.fixture(scope="session")
def demo_quality(demo_spec):
    return gaussian_grid(
        demo_spec,
        means=[[0.0, 1.0], [-2.0, 2.0]],
        variances=[[2.0, 1.0], [1.0, 1.0]],
    )


@pytest.fixture(scope="session")
def demo_uniform(demo_spec):
    return daglm.uniform_kernel(demo_spec)


@pytest.fixture(scope="session")
def demo_config(demo_spec, demo_kernel, demo_quality):
    return daglm.ExperimentConfig(
        spec=demo_spec,
        kernel=demo_kernel,
        quality=demo_quality,
        n=2000,
        seed=17,
        replicates=200,
    )


@pytest.fixture(scope="session")
def demo_data(demo_config):
    return daglm.sample_dataset(dataclasses.replace(demo_config, replicates=1), 0)


def random_model(rng, max_c=4, max_r=4, sparsify=0.0):
    """Random layered model: spec, a strictly positive-support kernel pair.

    When sparsify > 0, a random subset of entries is zeroed in both kernels
    at the same positions, keeping them equivalent.
    """
    c = int(rng.integers(2, max_c + 1))
    levels = tuple(int(rng.integers(2, max_r + 1)) for _ in range(c))
    spec = daglm.DagSpec(levels=levels)

    def random_distribution(size, pattern=None):
        raw = rng.uniform(0.1, 1.0, size=size)
        if pattern is not None:
            raw = raw * pattern
        return raw / raw.sum()

    def random_pattern(size):
        while True:
            pattern = (rng.random(size) > sparsify).astype(float)
            if pattern.sum() > 0:
                return pattern

    patterns = [random_pattern(levels[0])]
    for k in range(c - 1):
        patterns.append(
            np.stack([random_pattern(levels[k + 1]) for _ in range(levels[k])])
        )

    def build():
        initial = random_distribution(levels[0], patterns[0])
        steps = []
        for k in range(c - 1):
            steps.append(
                np.stack(
                    [
                        random_distribution(levels[k + 1], patterns[k + 1][row])
                        for row in range(levels[k])
                    ]
                )
            )
        return daglm.TransitionKernel(initial=initial, steps=tuple(steps))

    means = rng.normal(0.0, 2.0, size=(max(levels), c))
    variances = rng.uniform(0.2, 2.0, size=(max(levels), c))
    nodes = {}
    for j in range(1, c + 1):
        for i in range(1, levels[j - 1] + 1):
            nodes[(i, j)] = daglm.NodeQuality.gaussian(
                means[i - 1, j - 1], variances[i - 1, j - 1]
            )
    return spec, build(), build(), daglm.QualityModel(nodes=nodes)
