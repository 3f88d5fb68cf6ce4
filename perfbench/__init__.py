"""In-process benchmark of densitylab; see README.md in this directory."""
