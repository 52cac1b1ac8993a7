package tier

import "nascent/internal/vm"

// JITStats returns the static output of the closure compile a settled
// handle runs on, and false while it runs on none.
func JITStats(h Handle) (vm.JITStats, bool) {
	jh, _ := h.(*JitHandle)
	if tp, ok := h.(*Program); ok {
		jh = tp.hot.Load()
	}
	if jh == nil {
		return vm.JITStats{}, false
	}
	jp := jh.jit.Load()
	if jp == nil || jh.dead.Load() {
		return vm.JITStats{}, false
	}
	return jp.Stats(), true
}
