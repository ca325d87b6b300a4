package dispatch

import "faultroute/api"

// Rank exposes placement to the black-box tests: urls ordered by their
// rendezvous score for key, owner first. Placement depends on the
// backends' URLs, and httptest picks random ports, so a test that
// needs a particular backend to own a sub-job reads the ranking and
// assigns roles from it.
func Rank(urls []string, key string) []string {
	return urlsOf(rank(testMembers(urls), key))
}

// Assign exposes a request's placement to the black-box tests: the
// placement order of each of the request's sub-job keys, in order, its
// owner first and the owner's successor second.
func Assign(urls []string, keys []string) [][]string {
	orders := assign(testMembers(urls), keys)
	out := make([][]string, len(orders))
	for i, order := range orders {
		out[i] = urlsOf(order)
	}
	return out
}

// ShardRanges exposes the shard layout rule to the black-box tests:
// the trial ranges a Pool splits an estimate of this many trials into,
// or nil when it dispatches the estimate whole.
func ShardRanges(trials int) []api.ShardSpec {
	return shardRanges(api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{Trials: trials}})
}

func testMembers(urls []string) []*member {
	ms := make([]*member, len(urls))
	for i, u := range urls {
		ms[i] = newMember(u, nil)
	}
	return ms
}
