"""Planar RIS panel geometry.

All lengths are expressed in wavelength units; the wavelength itself never
appears as a separate parameter. Elements sit on a regular lattice that
spans the full aperture inclusive of both edges, so a side of length L with
spacing d carries round(L/d) + 1 elements.
"""

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class RisGeometry:
    """Rectangular RIS panel in the y = 0 plane.

    len_x, len_z: aperture side lengths (in wavelengths).
    spacing_x, spacing_z: element spacing along each side (in wavelengths).
    """

    len_x: float
    len_z: float
    spacing_x: float
    spacing_z: float

    def __post_init__(self):
        for field in ("len_x", "len_z", "spacing_x", "spacing_z"):
            value = getattr(self, field)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"{field} must be a positive finite number, got {value!r}",
                    field=field,
                )
        if self.spacing_x > self.len_x:
            raise ValidationError(
                f"spacing_x ({self.spacing_x}) exceeds len_x ({self.len_x})",
                field="spacing_x",
            )
        if self.spacing_z > self.len_z:
            raise ValidationError(
                f"spacing_z ({self.spacing_z}) exceeds len_z ({self.len_z})",
                field="spacing_z",
            )
        # an overflowing side count would make round() raise OverflowError
        for side in ("x", "z"):
            length = getattr(self, f"len_{side}")
            spacing = getattr(self, f"spacing_{side}")
            if not math.isfinite(length / spacing):
                raise ValidationError(
                    f"len_{side} / spacing_{side} = {length!r} / {spacing!r} "
                    "overflows a float",
                    field=f"spacing_{side}",
                )

    @property
    def n_x(self) -> int:
        return round(self.len_x / self.spacing_x) + 1

    @property
    def n_z(self) -> int:
        return round(self.len_z / self.spacing_z) + 1

    @property
    def n(self) -> int:
        """Total element count."""
        return self.n_x * self.n_z


def asymptotic_dof(geom: RisGeometry) -> int:
    """SNR-unaware spatial DoF limit floor(pi * len_x * len_z) for a dense aperture."""
    return int(math.floor(math.pi * geom.len_x * geom.len_z))
