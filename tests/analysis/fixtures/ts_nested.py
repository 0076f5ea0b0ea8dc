"""Fixture: a nested def's body belongs to the nested def alone."""

import socket


def outer_leaky(host, port):
    def inner():
        conn = socket.create_connection((host, port))  # VIS212: once, in inner()
        conn.sendall(b"hello")

    return inner


def outer_closes(host, port):
    def inner():
        conn = socket.create_connection((host, port))  # clean: closed
        conn.close()

    return inner


class LeakyAcrossDefs:
    def run(self, make):
        def helper():
            buf = self.out
            buf.commit(1)  # VIS210: self.out is never reserved

        buf = make()
        yield buf.reserve()  # VIS210: the local buffer is never committed
        helper()


class BalancedAcrossDefs:
    def run(self):
        def helper():
            buf = self.out
            buf.commit(1)  # clean: run reserves self.out

        buf = self.out
        yield buf.reserve()  # clean: helper commits self.out
        helper()
