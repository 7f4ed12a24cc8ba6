package graph

import "testing"

func TestNodeHeapDecreaseKey(t *testing.T) {
	h := NewNodeHeap(4)
	h.Push(0, 10)
	h.Push(1, 5)
	h.Push(2, 7)
	h.Push(0, 1)  // decrease
	h.Push(1, 99) // ignored: larger than current
	n, p := h.Pop()
	if n != 0 || p != 1 {
		t.Fatalf("Pop = (%d,%v), want (0,1)", n, p)
	}
	n, p = h.Pop()
	if n != 1 || p != 5 {
		t.Fatalf("Pop = (%d,%v), want (1,5)", n, p)
	}
	n, p = h.Pop()
	if n != 2 || p != 7 {
		t.Fatalf("Pop = (%d,%v), want (2,7)", n, p)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}
