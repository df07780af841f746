package aaa

import "delphi/internal/rbc"

// OnDeliver is Abraham's reliable-broadcast delivery callback, for tests.
func (a *Abraham) OnDeliver(k rbc.Key, payload []byte) { a.onDeliver(k, payload) }
