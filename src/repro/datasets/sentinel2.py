"""The Sentinel-2-like "rich content" dataset (paper Table 2, Figure 10).

Eleven Washington-State-like locations labelled A-K spanning fluvial
landscapes, agriculture, mountains, forest and city, with two snowy
mountain locations (D and H) whose fluctuating snow albedo defeats
reference-based encoding — reproducing the paper's Figure 14 outliers.
The real constellation has 2 satellites and 13 bands over one year.
"""

from __future__ import annotations

from repro.datasets.generator import SyntheticDataset, build_dataset
from repro.imagery.bands import SENTINEL2_BANDS, Band, get_band
from repro.imagery.earth_model import LocationSpec, TerrainClass
from repro.imagery.noise import stable_hash

#: Terrain mixes of the 11 evaluation locations.  D and H are the snowy
#: mountain sites; activity multipliers make cities churn faster than
#: wilderness, matching the spread of Figure 14's per-location savings.
SENTINEL2_LOCATIONS: dict[str, dict] = {
    "A": {"mix": {TerrainClass.RIVER: 0.35, TerrainClass.FOREST: 0.65},
          "snowy": False, "activity": 0.9},
    "B": {"mix": {TerrainClass.AGRICULTURE: 0.7, TerrainClass.RIVER: 0.3},
          "snowy": False, "activity": 1.2},
    "C": {"mix": {TerrainClass.FOREST: 0.8, TerrainClass.MOUNTAIN: 0.2},
          "snowy": False, "activity": 0.7},
    "D": {"mix": {TerrainClass.MOUNTAIN: 0.75, TerrainClass.FOREST: 0.25},
          "snowy": True, "activity": 0.8},
    "E": {"mix": {TerrainClass.CITY: 0.55, TerrainClass.AGRICULTURE: 0.45},
          "snowy": False, "activity": 1.5},
    "F": {"mix": {TerrainClass.AGRICULTURE: 0.85, TerrainClass.CITY: 0.15},
          "snowy": False, "activity": 1.3},
    "G": {"mix": {TerrainClass.COASTAL: 0.5, TerrainClass.CITY: 0.5},
          "snowy": False, "activity": 1.1},
    "H": {"mix": {TerrainClass.MOUNTAIN: 0.9, TerrainClass.FOREST: 0.1},
          "snowy": True, "activity": 0.7},
    "I": {"mix": {TerrainClass.FOREST: 0.6, TerrainClass.AGRICULTURE: 0.4},
          "snowy": False, "activity": 1.0},
    "J": {"mix": {TerrainClass.RIVER: 0.25, TerrainClass.AGRICULTURE: 0.5,
                  TerrainClass.FOREST: 0.25},
          "snowy": False, "activity": 1.1},
    "K": {"mix": {TerrainClass.CITY: 0.3, TerrainClass.COASTAL: 0.4,
                  TerrainClass.FOREST: 0.3},
          "snowy": False, "activity": 1.0},
}


def sentinel2_bands(
    bands: tuple[Band, ...] | list[str] | None = None,
) -> tuple[Band, ...]:
    """The band set :func:`sentinel2_dataset` builds for ``bands``.

    Resolving it does not build the dataset, so callers that only need
    the bands (the detector warm step) skip imagery and orbit set-up.

    Raises:
        BandError: For an unknown band name.
    """
    if bands is None:
        return SENTINEL2_BANDS
    if bands and isinstance(bands[0], str):
        return tuple(get_band(name) for name in bands)  # type: ignore[arg-type]
    return tuple(bands)  # type: ignore[arg-type]


def sentinel2_dataset(
    locations: list[str] | None = None,
    bands: tuple[Band, ...] | list[str] | None = None,
    image_shape: tuple[int, int] = (256, 256),
    horizon_days: float = 365.0,
    n_satellites: int = 2,
    seed: int = 20,
    clear_probability: float = 0.22,
) -> SyntheticDataset:
    """Build the Sentinel-2-like dataset (optionally scaled down).

    Args:
        locations: Subset of location letters (default: all 11 A-K).
        bands: Band subset as Band objects or names (default: all 13).
        image_shape: Capture shape; the paper downsamples Sentinel-2 4x,
            our default 256x256 preserves the 64-pixel tile geometry at
            laptop scale.
        horizon_days: Duration (paper: 1 year).
        n_satellites: Constellation size (Sentinel-2 flies 2).
        seed: Dataset seed.
        clear_probability: Per-capture probability of a near-clear sky.

    Returns:
        The assembled dataset.
    """
    if locations is None:
        locations = list(SENTINEL2_LOCATIONS)
    band_tuple = sentinel2_bands(bands)
    specs = []
    for name in locations:
        info = SENTINEL2_LOCATIONS[name]
        specs.append(
            LocationSpec(
                name=name,
                shape=image_shape,
                terrain_mix=info["mix"],
                seed=stable_hash(seed, "sentinel2", name),
                snowy=info["snowy"],
                activity=info["activity"],
            )
        )
    return build_dataset(
        name="sentinel2",
        specs=specs,
        bands=band_tuple,
        n_satellites=n_satellites,
        horizon_days=horizon_days,
        base_revisit_days=12.0,
        seed=stable_hash(seed, "sentinel2-constellation"),
        clear_probability=clear_probability,
    )
