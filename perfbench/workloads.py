"""The benchmark's workloads by name."""

import wl_cauchy
import wl_exact
import wl_kernel
import wl_radial

WORKLOADS = {wl.NAME: wl for wl in (wl_exact, wl_cauchy, wl_radial, wl_kernel)}
