"""Physical constants in SI units, CODATA 2022.

Written as literals so importing the package does not import
``scipy.constants``; each equals its ``scipy.constants`` value bit for bit
(scipy 1.17). This module imports nothing, so every other module can
import it without a cycle.
"""

epsilon_0 = 8.8541878188e-12          # vacuum permittivity, F/m
hbar = 1.0545718176461565e-34         # reduced Planck constant, J*s
Boltzmann = 1.380649e-23              # Boltzmann constant, J/K
elementary_charge = 1.602176634e-19   # C
speed_of_light = 299792458.0          # m/s
