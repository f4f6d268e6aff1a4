"""REST layer: router, JSON codec, HTTP/1.1 codec, threaded HTTP server, client."""
