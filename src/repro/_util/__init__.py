"""Small shared utilities: seeded RNG derivation and descriptive statistics."""
