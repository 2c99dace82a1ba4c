"""Table-4-shaped benchmark of kglp: see README.md in this directory."""
