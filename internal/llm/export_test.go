package llm

// CacheKeyOf exposes a request's cache identity to the external tests.
func CacheKeyOf(req Request) any { return keyOf(req) }
