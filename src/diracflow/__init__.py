"""diracflow: spectral flow and quantized interface conductivity of
magnetic Dirac domain-wall Hamiltonians, computed three independent ways
(closed-form bulk prediction, tracked fiber branches, windowed 2D trace).
"""

__version__ = "0.1.0"
