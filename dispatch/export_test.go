package dispatch

// Rank exposes placement to the black-box tests: urls ordered by their
// rendezvous score for key, owner first. Placement depends on the
// backends' URLs, and httptest picks random ports, so a test that
// needs a particular backend to own a sub-job reads the ranking and
// assigns roles from it.
func Rank(urls []string, key string) []string {
	members := make([]*member, len(urls))
	for i, u := range urls {
		members[i] = newMember(u, nil)
	}
	return urlsOf(rank(members, key))
}

// Owners exposes a request's placement to the black-box tests: the URL
// that owns each of the request's sub-job keys, in order.
func Owners(urls []string, keys []string) []string {
	members := make([]*member, len(urls))
	for i, u := range urls {
		members[i] = newMember(u, nil)
	}
	owners := make([]string, len(keys))
	for i, order := range assign(members, keys) {
		owners[i] = order[0].url
	}
	return owners
}
