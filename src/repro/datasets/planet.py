"""The Planet-like "large constellation" dataset (paper Table 2).

One coastal U.S. location, four Doves bands (RGB + NIR), three months, and
up to 48 satellites.  Its purpose is the constellation-size axis: with many
satellites the freshest cloud-free reference is days old instead of weeks,
which is where Earth+'s constellation-wide sharing pays off (Figures 11b
and 19).  Matching the paper's sampling, the cloud climatology is milder
(the authors filtered to <5 % cloud coverage scenes).
"""

from __future__ import annotations

from repro.datasets.generator import SyntheticDataset, build_dataset
from repro.imagery.bands import PLANET_BANDS, Band
from repro.imagery.earth_model import LocationSpec, TerrainClass
from repro.imagery.noise import stable_hash


def planet_bands(bands: tuple[Band, ...] | None = None) -> tuple[Band, ...]:
    """The band set :func:`planet_dataset` builds for ``bands``."""
    return PLANET_BANDS if bands is None else tuple(bands)


def planet_dataset(
    n_satellites: int = 48,
    bands: tuple[Band, ...] | None = None,
    image_shape: tuple[int, int] = (192, 192),
    horizon_days: float = 90.0,
    seed: int = 21,
    clear_probability: float = 0.5,
    location_name: str = "coastal-us",
) -> SyntheticDataset:
    """Build the Planet-like dataset.

    Args:
        n_satellites: Constellation size (paper sample: 48).
        bands: Band subset (default: all 4 Doves bands).
        image_shape: Capture shape (paper location covers 36 km^2).
        horizon_days: Duration (paper: 3 months).
        seed: Dataset seed.
        clear_probability: Clear-capture probability; higher than
            Sentinel-2's because the paper sampled <5 %-cloud scenes.
        location_name: Name of the single location.

    Returns:
        The assembled dataset.
    """
    band_tuple = planet_bands(bands)
    spec = LocationSpec(
        name=location_name,
        shape=image_shape,
        terrain_mix={
            TerrainClass.COASTAL: 0.45,
            TerrainClass.CITY: 0.3,
            TerrainClass.AGRICULTURE: 0.25,
        },
        seed=stable_hash(seed, "planet", location_name),
        snowy=False,
        activity=1.1,
    )
    return build_dataset(
        name="planet",
        specs=[spec],
        bands=band_tuple,
        n_satellites=n_satellites,
        horizon_days=horizon_days,
        base_revisit_days=12.0,
        seed=stable_hash(seed, "planet-constellation"),
        clear_probability=clear_probability,
    )
