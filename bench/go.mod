module github.com/gotuplex/tuplex/bench

go 1.22

require github.com/gotuplex/tuplex v0.0.0

replace github.com/gotuplex/tuplex => ../
