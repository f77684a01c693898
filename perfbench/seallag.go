package main

import (
	"math"
	"sort"
	"time"
)

var inf = math.Inf(1)

// observation is the moment an epoch was seen published.
type observation struct {
	at    time.Time
	epoch int
}

// sealLags measures how far the daemon's published epochs trail its input.
// visible[j] is when the input that makes epoch first+j sealable became
// visible (day first+j landing, or the COMPLETE sentinel for the final
// epoch). An epoch's lag runs from that moment to the first observation,
// no earlier, of that epoch or a later one. An epoch never observed is a
// miss (+Inf). The result is in milliseconds, one entry per epoch.
func sealLags(first int, visible []time.Time, obs []observation) []float64 {
	sort.Slice(obs, func(a, b int) bool { return obs[a].at.Before(obs[b].at) })
	lags := make([]float64, len(visible))
	for j, v := range visible {
		lags[j] = inf
		for _, o := range obs {
			if o.epoch >= first+j && !o.at.Before(v) {
				lags[j] = ms(o.at.Sub(v))
				break
			}
		}
	}
	return lags
}
