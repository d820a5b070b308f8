package llm

// CacheKeyOf exposes a request's cache identity to the external tests.
func CacheKeyOf(req Request) any { return keyOf(req) }

// Decide answers a filter request as Service.Complete does, through s's
// terms memo, without the accounting around it.
func Decide(s *Service, card ModelCard, req Request, resp *Response) {
	decide(s.terms, card, req, resp)
}

// Len returns the number of cached responses.
func (c *Cache) Len() int { return c.Stats().Len }
