package rpc

// The read-ahead window of a ranged reader: gridftp's RemoteFile (mechanisms
// 3 and 4) and the object store's read handle (mechanism 7). A refill after
// an open, a seek or any other jump asks for WindowMin; a refill that starts
// exactly where the previous window ended asks for twice what that one asked
// for, up to WindowMax, so random access moves 64 KiB per miss and a scan
// soon moves 256 KiB per round trip. The cap is measured, not guessed: past
// 256 KiB the copy out of the window starts to miss the CPU's cache
// (DESIGN.md §20, §30).
const (
	WindowMin = 64 << 10
	WindowMax = 256 << 10
)

// NextWindow is the length the next refill asks for, after one that asked
// for last: doubled, up to WindowMax, when the read ran exactly off the end
// of the previous window, and WindowMin otherwise.
func NextWindow(last int, sequential bool) int {
	if !sequential {
		return WindowMin
	}
	return min(max(2*last, WindowMin), WindowMax)
}
