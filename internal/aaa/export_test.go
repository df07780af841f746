package aaa

import "delphi/internal/rbc"

// OnDeliver is Abraham's reliable-broadcast delivery callback, for tests.
func (a *Abraham) OnDeliver(k rbc.Key, payload []byte) { a.onDeliver(k, payload) }

// DolevResultOf and AbrahamResultOf build a result whose node held values[r-1]
// after round r, for tests.
func DolevResultOf(values ...float64) DolevResult {
	rounds := make([]dolevRound, len(values))
	for i, v := range values {
		rounds[i].value = v
	}
	return DolevResult{Output: values[len(values)-1], Rounds: len(values), rounds: rounds}
}

func AbrahamResultOf(values ...float64) AbrahamResult {
	rounds := make([]*roundData, len(values)+1)
	for i, v := range values {
		rounds[i+1] = &roundData{value: v}
	}
	return AbrahamResult{Output: values[len(values)-1], Rounds: len(values), rounds: rounds}
}
