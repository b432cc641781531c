// Package audit holds what lint.Check reports of suppressions, checked
// by TestCheckAuditsSuppressions: one with no reason, one naming an
// unknown analyzer, one that silences nothing, and one live.
package audit

import "time"

func stamps() []time.Time {
	//uts:ok detcheck
	a := time.Now()
	//uts:ok detchek misspelt, so it silences nothing
	b := a.Add(1)
	//uts:ok detcheck the next line reads no clock
	c := b.Add(1)
	d := time.Now() //uts:ok detcheck the one live suppression
	return []time.Time{a, b, c, d}
}
