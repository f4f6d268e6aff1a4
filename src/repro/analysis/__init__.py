"""Analysis: error metrics, aggregation, text rendering of the figures."""
