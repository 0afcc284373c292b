import numpy as np
import pytest

from scenecontrast.scenegen import SceneGeometry, SemanticOracleConfig, generate_scene
from scenecontrast.trainer import SceneSet

SMALL_CFG = SemanticOracleConfig(num_classes=6, objects_per_scene=5)
SMALL_GEOM = SceneGeometry(num_points=384, height=32, width=32)


@pytest.fixture(scope="session")
def small_scene():
    return generate_scene(7, SMALL_CFG, SMALL_GEOM, scene_id=0)


@pytest.fixture(scope="session")
def small_frames():
    return [
        generate_scene(100 + s, SMALL_CFG, SMALL_GEOM, scene_id=s) for s in range(6)
    ]


@pytest.fixture(scope="session")
def small_set(small_frames):
    """``small_frames`` as one SceneSet, whose preparation the session shares."""
    return SceneSet(small_frames)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
