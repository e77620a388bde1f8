let of_ms ms = ms * 1000
