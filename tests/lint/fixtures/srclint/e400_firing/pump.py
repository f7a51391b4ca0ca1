"""Fixture: a partial pump, a discarded Query reply, a rogue core."""

from outbox import Deliver, Query, Send, Spend, Task


class PartialPump:  # E402: nothing here handles Query or Deliver
    def perform(self, effects):
        for effect in effects:
            if isinstance(effect, Send):
                self.ship(effect)
            elif isinstance(effect, Spend):
                self.wait(effect.seconds)
            elif isinstance(effect, Task):
                self.spawn(effect.name)

    def ship(self, effect):
        pass

    def wait(self, seconds):
        pass

    def spawn(self, name):
        pass


def careless(peer):
    yield Query(req_id="1")          # E403: reply discarded
    yield Spend(seconds=1.0)
    yield Deliver(req_id="1")


def rogue(clock):
    yield Send(to="x")
    yield clock.timeout(1.0)         # E404: core yields a non-effect
    yield Task(name="t")
